"""Finite-width equilibrium networks and their empirical tangent kernels.

The network is z = act(sqrt(sigma_w_sq/n) W z + sigma_u U x + sigma_b b)
with readout sqrt(sigma_v_sq/n) v.z.  Weights are stored as raw standard
normals; variance scalings are applied at use-sites.  Forward passes solve
the fixed point by plain iteration, gradients come from the implicit
function theorem with the adjoint fixed point solved the same way.  The
random-matrix experiments take the resolvent trace and the spectrum of
B = I - sqrt(sigma_w_sq/n) W without forming its inverse.

Randomness is counter-based (Philox) with one sub-stream per weight matrix
derived from ``SeedSequence([seed, matrix_id, layer])``, so any layer of an
untied draw can be re-drawn lazily and trials parallelize reproducibly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SingularityError
from .kernel import _iterate
from .params import LINEAR, KernelParams

_MATRIX_IDS = {"W": 0, "U": 1, "b": 2, "v": 3}

#: Largest 1-norm condition estimate of the Cholesky factor R of B^T B that
#: the resolvent trace accepts.  Forming B^T B squares the condition number
#: of B; on a 50 x 50 test matrix the trace was off by 1.8e-7 at an estimate
#: of 4.6e6 and by 1.6e-5 at 1.5e7.  Random draws at sigma_w_sq <= 0.999
#: and n <= 1000 measured at most 3e5 (errors <= 7e-11).
_MAX_FACTOR_COND = 1e7


def _stream(seed: int, matrix: str, layer: int = 0) -> np.random.Generator:
    ss = np.random.SeedSequence([int(seed), _MATRIX_IDS[matrix], int(layer)])
    return np.random.Generator(np.random.Philox(ss))


@dataclass(frozen=True)
class DeqWeights:
    """One finite-width weight draw (raw standard normal entries)."""

    W: np.ndarray  # n x n
    U: np.ndarray  # n x m
    b: np.ndarray  # n
    v: np.ndarray  # n
    n: int
    m: int
    seed: int
    params: KernelParams


@dataclass(frozen=True)
class EquilibriumState:
    z_star: np.ndarray
    residual: float
    iterations: int


@dataclass(frozen=True)
class EmpiricalNtkBreakdown:
    """Per-parameter-block decomposition of an empirical kernel value."""

    w_term: float
    u_term: float
    b_term: float
    v_term: float

    @property
    def total(self) -> float:
        return self.w_term + self.u_term + self.b_term + self.v_term


def make_weights(n: int, m: int, seed: int, params: KernelParams) -> DeqWeights:
    """Draw a weight set from the seeded Philox streams."""
    return DeqWeights(
        W=_stream(seed, "W").standard_normal((n, n)),
        U=_stream(seed, "U").standard_normal((n, m)),
        b=_stream(seed, "b").standard_normal(n),
        v=_stream(seed, "v").standard_normal(n),
        n=n,
        m=m,
        seed=seed,
        params=params,
    )


def _act_pair(params: KernelParams):
    if params.activation == LINEAR:
        return (lambda u: u), (lambda u: np.ones_like(u))
    root2 = np.sqrt(2.0)
    return (
        lambda u: root2 * np.maximum(u, 0.0),
        lambda u: root2 * (u > 0.0).astype(float),
    )


def _injection(weights: DeqWeights, x: np.ndarray) -> np.ndarray:
    p = weights.params
    inj = np.sqrt(p.sigma_u_sq) * (weights.U @ x)
    if p.sigma_b_sq > 0:
        inj = inj + np.sqrt(p.sigma_b_sq) * weights.b
    return inj


def _solve(step, start, tol, max_iter, stage):
    """Plain iteration z <- step(z) from ``start``, as ``kernel._iterate`` on
    a batch of one row.  An iterate's change is its residual ||step(z) - z||
    / (1 + ||z||); the state is the first step(z) whose residual is <= tol.

    A diverging pass raises as soon as ||z|| or the change is not finite:
    once ||z||^2 overflows, near |z| ~ 1e154, the change would read 0 or
    nan, so a non-finite ||z|| counts as an infinite change."""
    def residual_step(z):
        mapped, size = step(z), np.linalg.norm(z)
        change = np.linalg.norm(mapped - z) / (1.0 + size) if math.isfinite(size) else np.inf
        return mapped, np.array([change])

    with np.errstate(over="ignore"):  # an overflow raises in the loop
        z, residual, iterations = _iterate(start[None], residual_step, (), tol, max_iter,
                                           stage, "1 passes", lambda k: f"the {stage}")
    return EquilibriumState(z[0], float(residual[0]), iterations)


def deq_forward(weights: DeqWeights, x: np.ndarray, tol: float = 1e-10,
                max_iter: int = 10000) -> EquilibriumState:
    """Solve the forward fixed point by plain iteration.

    The map value act(A z + inj) that measures an iterate's residual is the
    next iterate, and the last one is the returned state, so each iteration
    costs one product with W.  A = sqrt(sigma_w_sq / n) W is never formed.
    """
    act, _ = _act_pair(weights.params)
    scale = np.sqrt(weights.params.sigma_w_sq / weights.n)
    inj = _injection(weights, x)
    return _solve(lambda z: act(scale * (z @ weights.W.T) + inj), act(inj), tol,
                  max_iter, "forward pass")


def _adjoint_vector(weights: DeqWeights, z_star: np.ndarray, x: np.ndarray,
                    tol: float = 1e-10, max_iter: int = 10000) -> np.ndarray:
    """p = D u, where u = c + A^T (D u) and D = diag(act'(pre-activation)).

    u is found by plain iteration with the forward pass's residual rule.
    The map's Jacobian A^T D is the transpose of the forward Jacobian D A
    at the fixed point, so it contracts whenever the forward pass does.
    """
    p = weights.params
    _, dact = _act_pair(p)
    scale = np.sqrt(p.sigma_w_sq / weights.n)
    D = dact(scale * (weights.W @ z_star) + _injection(weights, x))
    c = np.sqrt(p.sigma_v_sq / weights.n) * weights.v
    u = _solve(lambda u: c + scale * ((D * u) @ weights.W), c, tol, max_iter,
               "adjoint pass").z_star
    return D * u


def ift_ntk_pair(
    weights: DeqWeights, x: np.ndarray, y: np.ndarray, tol: float = 1e-10
) -> EmpiricalNtkBreakdown:
    """Empirical kernel of the equilibrium network via implicit gradients."""
    p = weights.params
    zx = deq_forward(weights, x, tol=tol).z_star
    zy = deq_forward(weights, y, tol=tol).z_star
    px = _adjoint_vector(weights, zx, x, tol=tol)
    py = _adjoint_vector(weights, zy, y, tol=tol)
    pp = float(px @ py)
    zz = float(zx @ zy)
    return EmpiricalNtkBreakdown(
        w_term=(p.sigma_w_sq / weights.n) * pp * zz,
        u_term=p.sigma_u_sq * pp * float(x @ y),
        b_term=p.sigma_b_sq * pp,
        v_term=(p.sigma_v_sq / weights.n) * zz,
    )


def _shifted_identity(W: np.ndarray, sigma_w_sq: float, out=None) -> np.ndarray:
    """B = I - sqrt(sigma_w_sq/n) W; ``out=W`` builds it in W's memory."""
    n = W.shape[0]
    B = np.multiply(-np.sqrt(sigma_w_sq / n), W, out=out)
    B.ravel()[:: n + 1] += 1.0
    return B


def _gram_upper(B: np.ndarray) -> np.ndarray:
    """B^T B by ``dsyrk``: the upper triangle of a Fortran-ordered array.
    B^T of a C-ordered B is Fortran-ordered, so BLAS reads B in place."""
    import scipy.linalg  # each LAPACK caller loads it on first use, off the CLI's start-up

    return scipy.linalg.blas.dsyrk(1.0, B.T, trans=0, lower=0)


def _inverse_frobenius_sq(B: np.ndarray) -> float:
    """||B^{-1}||_F^2 = ||R^{-1}||_F^2, where B^T B = R^T R (Cholesky).

    The Gram, its factor and the factor's inverse share one n x n buffer;
    no inverse of B is formed.  A failed factorization, or a factor whose
    condition estimate exceeds ``_MAX_FACTOR_COND`` (the squared condition
    number would cost accuracy), raises ``SingularityError``.
    """
    import scipy.linalg

    R, info = scipy.linalg.lapack.dpotrf(
        _gram_upper(B), lower=0, clean=1, overwrite_a=1
    )
    if info == 0:
        rcond, _ = scipy.linalg.lapack.dtrcon(R)
        if rcond * _MAX_FACTOR_COND < 1.0:
            raise SingularityError(
                f"I - sqrt(sigma_w_sq/n) W is too ill-conditioned for the "
                f"Cholesky trace (reciprocal condition estimate {rcond:.3e} "
                f"of the factor of B^T B)"
            )
        R, info = scipy.linalg.lapack.dtrtri(R, lower=0, overwrite_c=1)
    if info != 0:
        raise SingularityError(
            f"I - sqrt(sigma_w_sq/n) W is singular to working precision "
            f"(Cholesky/triangular inverse info={info})"
        )
    flat = R.ravel(order="K")
    return float(flat @ flat)


def resolvent_trace(n: int, sigma_w_sq: float, seed: int) -> float:
    """(1/n) tr(H^T H) = (1/n) ||B^{-1}||_F^2 for one seeded draw of W;
    sigma_w_sq must lie in [0, 1), where the limit is invertible."""
    if not 0.0 <= sigma_w_sq < 1.0:
        raise DomainError(f"sigma_w_sq={sigma_w_sq} must lie in [0, 1) for an invertible limit")
    W = _stream(seed, "W").standard_normal((n, n))
    return _inverse_frobenius_sq(_shifted_identity(W, sigma_w_sq, out=W)) / n


def empirical_spectrum(weights: DeqWeights) -> np.ndarray:
    """Ascending eigenvalues of B^T B, B = I - sqrt(sigma_w_sq/n) W."""
    import scipy.linalg

    B = _shifted_identity(weights.W, weights.params.sigma_w_sq)
    return scipy.linalg.eigvalsh(
        _gram_upper(B), lower=False, overwrite_a=True, check_finite=False
    )
