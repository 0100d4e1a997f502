"""Limiting spectral density of the shifted-Gaussian resolvent matrix.

The matrix of interest is (I - sqrt(s/n) W)^T (I - sqrt(s/n) W) for an
i.i.d. standard Gaussian W and s = sigma_w_sq.  Its limiting eigenvalue
distribution mu has a Stieltjes transform g(z) = integral of
dmu(x)/(z - x) solving the implicit equation

    1/g = (1 - s*g) * z - 1/(1 - s*g),

which after clearing denominators is the cubic

    s^2 z g^3 - 2 s z g^2 + (z + s - 1) g - 1 = 0.

Everything here is in closed form on the real axis (Bai & Silverstein,
*Spectral Analysis of Large Dimensional Random Matrices*, 2010):

* Inside the support the cubic has one real root and a conjugate pair; g
  is the pair member with Im g < 0, and the density is -Im g / pi.  The
  pair comes from Cardano's formula for the reciprocal h = 1/g, whose
  cubic is written out at ``_transform_root``.  Outside the support all
  three roots are real and the density is 0.
* The support edges are where the cubic's discriminant vanishes, which
  reduces to the quadratic 4 lambda^2 - B lambda + 4 (1-s)^3 = 0 with
  B = 27 s^2 + 36 s (1-s) + 8 (1-s)^2.  At s = 0 both edges are 1: the
  distribution is a point mass.

The integral of 1/lambda against mu equals 1/(1-s).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError

#: Nested Gauss-Chebyshev rules of ``integrate_inverse_eig``: the first size,
#: the largest size and the relative agreement of consecutive rules.
_GC_FIRST_NODES = 63
_GC_MAX_NODES = 2**16
_GC_RTOL = 1e-12


@dataclass(frozen=True)
class SpectralDensitySamples:
    """Tabulated limiting density with its support interval."""

    sigma_w_sq: float
    support: tuple[float, float]
    grid: np.ndarray  # shape (n, 2): columns lambda, density

    def cdf(self, points):
        """Cumulative distribution evaluated at ``points`` by trapezoid sums;
        a step at a one-point support (the point mass at sigma_w_sq = 0)."""
        low, high = self.support
        if low == high:
            return np.where(np.asarray(points) >= low, 1.0, 0.0)
        lam = self.grid[:, 0]
        den = self.grid[:, 1]
        cum = np.concatenate(
            [[0.0], np.cumsum(0.5 * (den[1:] + den[:-1]) * np.diff(lam))]
        )
        total = cum[-1]
        return np.interp(points, lam, cum / total, left=0.0, right=1.0)


def _transform_root(lam: np.ndarray, sigma_w_sq: float) -> np.ndarray:
    """h = 1/g of the Stieltjes transform g at each lambda strictly inside
    the support, the root with Im h > 0 (Im g < 0).

    h solves the monic h^3 - (lambda+s-1) h^2 + 2 s lambda h - s^2 lambda,
    whose coefficients stay bounded as lambda -> 0 and at s = 0.  With h = a
    + t it is t^3 + p t + r, and inside the support its discriminant D > 0:
    Cardano's formula gives t = A + B for the real root and -(A+B)/2 +-
    i sqrt(3)/2 (A - B) for the pair, where A B = -p/3.  A takes the sign
    that avoids cancellation, and D is clamped at 0 against rounding at the
    edges, where the pair meets the real axis.  lambda - 1 is exact for
    lambda in [0.5, 2], so a keeps its digits as s -> 0 and the support
    shrinks around 1.
    """
    s = sigma_w_sq
    a = ((lam - 1.0) + s) / 3.0
    p = 2.0 * s * lam - 3.0 * a * a
    r = a * (2.0 * s * lam - 2.0 * a * a) - s * s * lam
    root_d = np.sqrt(np.maximum(r * r / 4.0 + p**3 / 27.0, 0.0))
    A = np.cbrt(-r / 2.0 - np.copysign(root_d, r))
    B = -p / (3.0 * A)
    return a - (A + B) / 2.0 + 1j * (np.sqrt(3.0) / 2.0) * np.abs(A - B)


def density(lam, sigma_w_sq: float):
    """Limiting density at ``lam``, a scalar or an array of any shape.

    It is -Im g / pi = Im h / (pi |h|^2) strictly inside the support from
    ``support_endpoints`` and 0 elsewhere; at s = 0 the support is the point
    1, a point mass with no density.
    """
    low, high = support_endpoints(sigma_w_sq)
    lam = np.asarray(lam, dtype=float)
    if not np.all(np.isfinite(lam)):
        raise DomainError("lambda must be finite")
    out = np.zeros(lam.shape)
    inside = (lam > low) & (lam < high)
    h = _transform_root(lam[inside], sigma_w_sq)
    out[inside] = h.imag / (np.pi * np.abs(h) ** 2)
    return out if out.ndim else float(out)


def support_endpoints(sigma_w_sq: float) -> tuple[float, float]:
    """Support interval (lambda_-, lambda_+) of the limiting density.

    lambda_+ = (B + sqrt(B^2 - 64 (1-s)^3)) / 8, and lambda_- is the other
    root of the edge quadratic, taken as (1-s)^3 / lambda_+ (the product of
    the roots) to avoid the cancellation in (B - sqrt(...)) / 8 as s -> 1.
    """
    if not 0.0 <= sigma_w_sq < 1.0:
        raise DomainError("sigma_w_sq must lie in [0, 1)")
    s = sigma_w_sq
    b = 27.0 * s * s + 36.0 * s * (1.0 - s) + 8.0 * (1.0 - s) ** 2
    upper = (b + math.sqrt(b * b - 64.0 * (1.0 - s) ** 3)) / 8.0
    return ((1.0 - s) ** 3 / upper, upper)


def density_table(sigma_w_sq: float, num: int = 1200) -> SpectralDensitySamples:
    """Tabulate the density on a grid spanning the closed support, where it
    is 0 at both edges; a one-point support gives a one-point grid."""
    l, u = support_endpoints(sigma_w_sq)
    lam = np.linspace(l, u, num if u > l else 1)
    grid = np.column_stack([lam, density(lam, sigma_w_sq)])
    return SpectralDensitySamples(sigma_w_sq=sigma_w_sq, support=(l, u), grid=grid)


def integrate_inverse_eig(sigma_w_sq: float) -> float:
    """Integral of 1/lambda against the limiting density; the closed-form
    target is 1/(1-sigma_w_sq).

    On the support lambda = c + h cos(theta), and the density over the
    weight sqrt((lambda - lambda_-)(lambda_+ - lambda)) is smooth (square-
    root edges), so Gauss-Chebyshev rules of the second kind fit it: the
    N-node rule is pi h / (N + 1) times the sum of sin(theta_i) rho / lambda
    at theta_i = i pi / (N + 1).  Rules are nested (N -> 2N + 1), each is
    one array ``density`` call, and two consecutive rules must agree.
    """
    if not 0.0 <= sigma_w_sq <= 0.9:
        raise DomainError("sigma_w_sq must lie in [0, 0.9]")
    if sigma_w_sq == 0.0:
        return 1.0
    l, u = support_endpoints(sigma_w_sq)
    c, h = 0.5 * (u + l), 0.5 * (u - l)
    previous = np.nan
    nodes = _GC_FIRST_NODES
    while nodes <= _GC_MAX_NODES:
        theta = np.arange(1, nodes + 1) * (np.pi / (nodes + 1))
        lam = c + h * np.cos(theta)
        value = np.pi * h / (nodes + 1) * float(
            np.sum(np.sin(theta) * density(lam, sigma_w_sq) / lam)
        )
        if abs(value - previous) <= _GC_RTOL * abs(value):
            return value
        previous = value
        nodes = 2 * nodes + 1
    raise ConvergenceError(
        f"Gauss-Chebyshev quadrature at sigma_w_sq={sigma_w_sq!r} did not reach "
        f"a relative {_GC_RTOL} within {_GC_MAX_NODES} nodes"
    )


def write_density_csv(samples: SpectralDensitySamples, path) -> None:
    """CSV table of (lambda, density) with a comment line carrying the
    parameters."""
    l, u = samples.support
    header = (
        f"# sigma_w_sq={samples.sigma_w_sq!r} support_low={l!r} "
        f"support_high={u!r}\nlambda,density"
    )
    np.savetxt(path, samples.grid, delimiter=",", header=header, comments="",
               fmt="%.17g")
