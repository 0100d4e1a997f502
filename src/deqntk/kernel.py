"""Kernel mathematics for input-injected infinite-width networks.

Everything here reduces to one-dimensional recursions in the pairwise inner
product x.y: closed-form Gaussian dual activations, the covariance update
map, the finite-depth tangent-kernel recursion and its depth limit obtained
by root-finding.  For unit-norm inputs the self-covariance of every input
follows one scalar affine map, d <- sigma_w_sq * d + sigma_u_sq +
sigma_b_sq, so only the cross covariance is an array and the depth limit of
the diagonal is closed-form.

Each quantity has one array implementation; a scalar call runs it on one
element.  All functions are pure and accept either scalars or numpy arrays
of inner products; scalar in, scalar out.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, SingularityError
from .params import LINEAR, NORMALIZED_RELU, KernelParams

#: Inputs this close to +-1 are treated as rounding noise and clamped.
BOUNDARY_SLACK = 1e-12
#: Largest |norm - 1| of a sample or pixel that the kernels accept as unit.
_UNIT_NORM_TOL = 1e-9

_MAX_NEWTON_ITER = 200
_ROOT_TOL = 1e-12
_POLE_TOL = 1e-14

#: Entries per block of the array cores.  A block's work arrays (at most six
#: of 256 KiB) stay in a 2 MiB L2 cache across Newton steps and layers.  On
#: a 2-core AVX-512 Xeon, 16-64 Ki entries timed within noise of each other;
#: the same in-place code over the whole array took 2.2x as long for the
#: Newton solve and 1.2x for the depth recursion, and 4 Ki took ~20% longer.
_BLOCK = 32_768


@dataclass(frozen=True)
class PairKernelState:
    """Per-pair covariance/kernel scalars after a finite-depth recursion."""

    rho: float  # correlation of the current pre-activation covariance
    sigma_dot: float  # current derivative-covariance value
    theta: float  # accumulated tangent-kernel value
    depth: int


@dataclass(frozen=True)
class FixedPointResult:
    """Depth-limit kernel quantities for one input pair."""

    rho_star: float  # fixed point of the covariance map
    sigma_dot_star: float  # sigma_w_sq times the derivative dual activation
    theta: float  # limiting kernel value, readout layer included
    iterations: int
    residual: float


def _as_correlation(rho):
    """Validate and clamp correlations to [-1, 1]."""
    arr = np.asarray(rho, dtype=float)
    if not np.all(np.abs(arr) <= 1.0 + BOUNDARY_SLACK):
        bad = np.max(np.abs(arr))
        raise DomainError(f"correlation magnitude {bad} is not at most 1")
    return np.clip(arr, -1.0, 1.0)


def _check_unit(x, message):
    """Raise ``DomainError(message)`` unless every vector along the last axis
    of ``x`` has unit norm within ``_UNIT_NORM_TOL``."""
    norms = np.sqrt(np.einsum("...i,...i->...", x, x))
    if not np.all(np.abs(norms - 1.0) <= _UNIT_NORM_TOL):
        raise DomainError(message)


def _maybe_scalar(value, template):
    return float(value) if np.isscalar(template) else value


def _k0_k1(rho, activation):
    """Derivative and plain dual activations at unit marginals, as new arrays
    filled by ``_duals`` at a copy of ``rho``."""
    r = np.array(rho, dtype=float)
    # three arrays: a 0-d view into one (3,) array is a scalar, unfit for out=
    angle, k1, tmp = (np.empty(r.shape) for _ in range(3))
    _duals(r, activation, angle, k1, tmp)
    return np.divide(angle, np.pi, out=angle), k1


def _k1(rho, activation):
    """Dual activation at unit marginals, dispatched on the activation tag."""
    return _k0_k1(rho, activation)[1]


def dual_activation(rho):
    """E[sigma(u) sigma(v)] for the normalized ReLU at correlation ``rho``.

    (u, v) are jointly standard normal with correlation rho; the closed form
    is (sqrt(1 - rho^2) + (pi - arccos(rho)) * rho) / pi.
    """
    return _maybe_scalar(_k1(_as_correlation(rho), NORMALIZED_RELU), rho)


def dual_activation_dot(rho):
    """E[sigma'(u) sigma'(v)] for the normalized ReLU: (pi - arccos(rho)) / pi."""
    return _maybe_scalar(_k0_k1(_as_correlation(rho), NORMALIZED_RELU)[0], rho)


def _diag_fixed_point(params: KernelParams) -> float:
    """Limit of the self-covariance for unit-norm inputs.

    The diagonal recursion a <- sigma_w_sq * a + sigma_u_sq + sigma_b_sq is
    affine, so its limit is closed-form.  Equals 1 under the unit-sum
    initialization.
    """
    return (params.sigma_u_sq + params.sigma_b_sq) / (1.0 - params.sigma_w_sq)


def _blocks(n):
    """(start, stop) bounds of the fixed-size blocks covering n entries."""
    return ((lo, min(lo + _BLOCK, n)) for lo in range(0, n, _BLOCK))


def _duals(rho, activation, angle, k1, tmp):
    """Dual activations at ``rho`` in place, with one ``arccos``.

    Clips ``rho`` to [-1, 1] in place, then fills ``angle`` with pi -
    arccos(rho), so that k0(rho) = angle / pi, and ``k1`` with k1(rho);
    ``tmp`` is scratch.
    """
    np.clip(rho, -1.0, 1.0, out=rho)
    if activation == LINEAR:
        angle.fill(np.pi)
        np.copyto(k1, rho)
        return
    np.arccos(rho, out=angle)
    np.subtract(np.pi, angle, out=angle)
    np.multiply(rho, rho, out=tmp)
    np.subtract(1.0, tmp, out=tmp)
    np.sqrt(tmp, out=tmp)
    np.multiply(angle, rho, out=k1)
    np.add(tmp, k1, out=k1)
    np.divide(k1, np.pi, out=k1)


def _finite_depth(dot, d, params: KernelParams):
    """Run d interior layers of the covariance/kernel recursion and the
    readout layer, vectorized over ``dot``.

    Returns (rho, sigma_dot, theta, out): the correlation entering the
    readout, the last interior derivative covariance, the interior kernel
    and the kernel with the readout layer (sigma_v_sq times the dual
    activations).  The common self-covariance ``diag`` of both inputs is a
    scalar, so its values per layer are computed once.  Each block of
    entries runs all layers in block-sized work arrays before the next
    block starts.
    """
    _as_correlation(dot)
    if d < 0:
        raise ValueError("depth must be nonnegative")
    sw2, su2, sb2 = params.sigma_w_sq, params.sigma_u_sq, params.sigma_b_sq
    act = params.activation
    dot = np.asarray(dot, dtype=float)

    diags = [1.0]
    for _ in range(d):
        diags.append(sw2 * diags[-1] + su2 + sb2)
    # Without injection or bias the diagonal sw2^l underflows to 0 (from
    # layer 1 at sw2 = 0), and with it every covariance and the kernel.  The
    # layers then run up to the last nonzero diagonal, whose rho and
    # sigma_dot are returned, and the kernel is exactly 0.
    vanished = 0.0 in diags
    if vanished:
        diags = diags[: diags.index(0.0)]
    outputs = tuple(np.empty(dot.shape) for _ in range(4))
    flat = dot.reshape(-1)
    views = [o.reshape(-1) for o in outputs]
    work = np.empty((5, min(_BLOCK, flat.size)))
    for lo, hi in _blocks(flat.size):
        rho, sigma_dot, theta, out = (v[lo:hi] for v in views)
        angle, k1, tmp, cov, inject = work[:, : hi - lo]
        np.multiply(su2, flat[lo:hi], out=inject)
        np.copyto(cov, flat[lo:hi])
        np.copyto(theta, flat[lo:hi])
        sigma_dot.fill(0.0)
        for diag in diags[:-1]:
            np.divide(cov, diag, out=rho)
            _duals(rho, act, angle, k1, tmp)
            np.divide(angle, np.pi, out=sigma_dot)
            np.multiply(sw2, sigma_dot, out=sigma_dot)
            np.multiply(sw2 * diag, k1, out=cov)
            np.add(cov, inject, out=cov)
            np.add(cov, sb2, out=cov)
            np.multiply(sigma_dot, theta, out=theta)
            np.add(theta, cov, out=theta)
        diag = diags[-1]
        np.divide(cov, diag, out=rho)
        _duals(rho, act, angle, k1, tmp)
        np.divide(angle, np.pi, out=tmp)
        np.multiply(tmp, theta, out=tmp)
        np.multiply(diag, k1, out=k1)
        np.add(tmp, k1, out=tmp)
        np.multiply(params.sigma_v_sq, tmp, out=out)
    if vanished:
        outputs[2].fill(0.0)
        outputs[3].fill(0.0)
    return outputs


def finite_depth_theta(dot, d, params: KernelParams, include_output_layer=True):
    """Vectorized finite-depth tangent-kernel values for inner products ``dot``."""
    _, _, theta, out = _finite_depth(dot, d, params)
    return _maybe_scalar(out if include_output_layer else theta, dot)


def finite_depth_ntk(dot, d: int, params: KernelParams) -> PairKernelState:
    """Finite-depth kernel state for one pair of unit-norm inputs.

    Runs ``d`` interior layers and applies the readout-layer dual
    activations scaled by sigma_v_sq.
    """
    rho, sigma_dot, _, out = _finite_depth(dot, d, params)
    return PairKernelState(
        rho=float(rho), sigma_dot=float(sigma_dot), theta=float(out), depth=d
    )


def _fixed_point(dot, params: KernelParams):
    """Depth-limit kernel quantities, vectorized over ``dot``.

    The covariance fixed point s* is the root of F(s) = sigma_w_sq * a *
    k1(s/a) + sigma_u_sq * dot + sigma_b_sq - s, where a is the diagonal
    fixed point, found by safeguarded Newton: F' <= sigma_w_sq - 1 < 0, so
    the root is unique and Newton steps are damped only by the [-a, a]
    clamp.  The interior kernel limit is s* / (1 - sigma_dot*); the readout
    layer contributes sigma_v_sq times the dual activations at the fixed
    point, which the last Newton step has already evaluated.

    Each block of entries runs Newton in block-sized work arrays until all
    of its own entries have converged, then its readout.  Entries with dot
    >= 1 take the closed-form root s* = a (k0 = k1 = 1), not the value the
    block's further steps would leave them at.  Returns (s*, sigma_dot*,
    theta, iterations, residual): three arrays shaped like ``dot``, the
    most Newton steps any block took and the largest |F(s*)|.
    """
    _as_correlation(dot)
    params.require_contraction()
    sw2, su2, sb2 = params.sigma_w_sq, params.sigma_u_sq, params.sigma_b_sq
    act = params.activation
    dot = np.asarray(dot, dtype=float)
    a = _diag_fixed_point(params)

    if a == 0.0:
        # Without injection or bias every covariance decays to 0 and every
        # correlation tends to 1, the only fixed point of k1: the kernel is 0.
        zero = np.zeros(dot.shape)
        return zero, np.full(dot.shape, sw2), zero.copy(), 0, 0.0

    outputs = tuple(np.empty(dot.shape) for _ in range(3))
    flat = dot.reshape(-1)
    views = [o.reshape(-1) for o in outputs]
    work = np.empty((6, min(_BLOCK, flat.size)))
    iterations, residual = 0, 0.0
    for lo, hi in _blocks(flat.size):
        s, sigma_dot, theta = (v[lo:hi] for v in views)
        rho, angle, k1, tmp, f, inject = work[:, : hi - lo]
        np.multiply(su2, flat[lo:hi], out=inject)
        np.add(inject, sb2, out=inject)
        np.divide(inject, 1.0 - sw2, out=s)
        np.clip(s, -a, a, out=s)
        for step in range(1, _MAX_NEWTON_ITER + 1):
            np.divide(s, a, out=rho)
            _duals(rho, act, angle, k1, tmp)
            np.multiply(sw2 * a, k1, out=f)
            np.add(f, inject, out=f)
            np.subtract(f, s, out=f)
            block_residual = np.abs(f, out=tmp).max()
            if block_residual <= _ROOT_TOL:
                break
            np.divide(angle, np.pi, out=tmp)
            np.multiply(sw2, tmp, out=tmp)
            np.subtract(tmp, 1.0, out=tmp)
            np.divide(f, tmp, out=tmp)
            np.subtract(s, tmp, out=s)
            np.clip(s, -a, a, out=s)
        iterations = max(iterations, step)
        residual = max(residual, block_residual)
        if not block_residual <= _ROOT_TOL:
            first = float(flat[lo + np.argmax(np.abs(f) > _ROOT_TOL)])
            raise ConvergenceError(
                f"covariance fixed point not found in {_MAX_NEWTON_ITER} "
                f"iterations (max residual {block_residual:.3e}; first "
                f"unconverged x.y = {first!r})"
            )
        one = flat[lo:hi] >= 1.0
        s[one], angle[one], k1[one] = a, np.pi, 1.0
        rho_dot = np.divide(angle, np.pi, out=angle)
        np.multiply(sw2, rho_dot, out=sigma_dot)
        np.subtract(1.0, sigma_dot, out=tmp)
        if np.any(np.abs(tmp, out=f) < _POLE_TOL):
            raise SingularityError("derivative covariance reached 1: frozen kernel")
        np.multiply(rho_dot, s, out=theta)
        np.divide(theta, tmp, out=theta)
        np.multiply(a, k1, out=k1)
        np.add(theta, k1, out=theta)
        np.multiply(params.sigma_v_sq, theta, out=theta)
    return (*outputs, iterations, residual)


def theta_deq_grid(dot, params: KernelParams):
    """Vectorized depth-limit kernel over an array of inner products."""
    return _maybe_scalar(_fixed_point(dot, params)[2], dot)


def theta_deq(dot: float, params: KernelParams) -> FixedPointResult:
    """Depth-limit kernel for one pair, with the fixed-point diagnostics."""
    s, sigma_dot, theta, iterations, residual = _fixed_point(float(dot), params)
    return FixedPointResult(rho_star=float(s), sigma_dot_star=float(sigma_dot),
                            theta=float(theta), iterations=iterations,
                            residual=float(residual))


def theta_linear_deq(dot, params: KernelParams):
    """Closed-form depth-limit kernel of the linear (identity activation) DEQ:
    sigma_v_sq * (sigma_u_sq * x.y + sigma_b_sq)
    * (1/(1-sigma_w_sq)^2 + 1/(1-sigma_w_sq)).
    """
    params.require_contraction()
    inject = params.sigma_u_sq * np.asarray(dot, dtype=float) + params.sigma_b_sq
    w = 1.0 - params.sigma_w_sq
    val = params.sigma_v_sq * inject * (1.0 / (w * w) + 1.0 / w)
    return _maybe_scalar(val, dot)
