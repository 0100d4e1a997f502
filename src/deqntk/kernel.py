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

#: Entries per block of the array cores, also the granularity of Newton's
#: stop.  A block's temporaries (256 KiB each) stay in a 2 MiB L2 cache
#: across Newton steps and layers.  On a 2-core AVX-512 Xeon, over 2M dots
#: in two runs, 32 and 64 Ki entries timed within noise of each other; 16 Ki
#: was up to 30% slower, 4 Ki 25-35% slower, and the whole array as one block
#: 1.8-2.2x as slow for the Newton solve and 1.6-2.1x for a depth-10
#: recursion.
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


def _clip(x, bound):
    """``np.clip(x, -bound, bound)`` by two ufuncs: np.clip's Python wrapper
    costs a third of a layer over the few hundred nodes of a Gram's fit."""
    return np.minimum(np.maximum(x, -bound), bound)


def _as_correlation(rho):
    """Validate and clamp correlations to [-1, 1]."""
    arr = np.asarray(rho, dtype=float)
    if not np.all(np.abs(arr) <= 1.0 + BOUNDARY_SLACK):
        raise DomainError(f"correlation magnitude {np.abs(arr).max()} is not at most 1")
    return _clip(arr, 1.0)


def _check_unit(x, message):
    """Raise ``DomainError(message)`` unless every vector along the last axis
    of ``x`` has unit norm within ``_UNIT_NORM_TOL``."""
    norms = np.sqrt(np.einsum("...i,...i->...", x, x))
    if not np.all(np.abs(norms - 1.0) <= _UNIT_NORM_TOL):
        raise DomainError(message)


def _maybe_scalar(value, template):
    return float(value) if np.isscalar(template) else value


def _k1(rho, activation):
    """Dual activation at unit marginals, dispatched on the activation tag,
    as an array (ufuncs turn a 0-d one into a scalar)."""
    return np.asarray(_duals(rho, activation)[1])


def dual_activation(rho):
    """E[sigma(u) sigma(v)] for the normalized ReLU at correlation ``rho``.

    (u, v) are jointly standard normal with correlation rho; the closed form
    is (sqrt(1 - rho^2) + (pi - arccos(rho)) * rho) / pi.
    """
    return _maybe_scalar(_k1(_as_correlation(rho), NORMALIZED_RELU), rho)


def dual_activation_dot(rho):
    """E[sigma'(u) sigma'(v)] for the normalized ReLU: (pi - arccos(rho)) / pi."""
    return _maybe_scalar(np.asarray(_duals(_as_correlation(rho), NORMALIZED_RELU)[0]), rho)


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


def _duals(rho, activation):
    """(k0, k1): the derivative and plain dual activations at unit marginals,
    at ``rho`` clipped to [-1, 1], with one ``arccos``."""
    rho = _clip(rho, 1.0)
    if activation == LINEAR:
        return np.ones_like(rho), rho
    angle = np.pi - np.arccos(rho)
    return angle / np.pi, (np.sqrt(1.0 - rho * rho) + angle * rho) / np.pi


def _finite_depth(dot, d, params: KernelParams):
    """Run d interior layers of the covariance/kernel recursion and the
    readout layer, vectorized over ``dot``.

    Returns (rho, sigma_dot, theta, out): the correlation entering the
    readout, the last interior derivative covariance, the interior kernel
    and the kernel with the readout layer (sigma_v_sq times the dual
    activations).  The common self-covariance ``diag`` of both inputs is a
    scalar, so its values per layer are computed once.  Each block of
    entries runs all layers before the next block starts.
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
    for lo, hi in _blocks(flat.size):
        x = flat[lo:hi]
        inject, cov, theta, sigma_dot = su2 * x, x, x, 0.0
        for diag in diags[:-1]:
            k0, k1 = _duals(cov / diag, act)
            sigma_dot = sw2 * k0
            cov = sw2 * diag * k1 + inject + sb2
            theta = sigma_dot * theta + cov
        diag = diags[-1]
        rho = _clip(cov / diag, 1.0)
        k0, k1 = _duals(rho, act)  # rho is returned clipped; _duals' clip is a no-op
        out = params.sigma_v_sq * (k0 * theta + diag * k1)
        for view, value in zip(views, (rho, sigma_dot, theta, out)):
            view[lo:hi] = value
    if vanished:
        outputs[2][...] = outputs[3][...] = 0.0
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

    Each block of entries runs Newton until all of its own entries have
    converged, then its readout.  Entries with dot >= 1 take the
    closed-form root s* = a (k0 = k1 = 1), not the value the block's further
    steps would leave them at.  Returns (s*, sigma_dot*, theta, iterations,
    residual): three arrays shaped like ``dot``, the most Newton steps any
    block took and the largest |F(s*)|.
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
    iterations, residual = 0, 0.0
    for lo, hi in _blocks(flat.size):
        x = flat[lo:hi]
        inject = su2 * x + sb2
        s = _clip(inject / (1.0 - sw2), a)
        for step in range(1, _MAX_NEWTON_ITER + 1):
            k0, k1 = _duals(s / a, act)
            f = sw2 * a * k1 + inject - s
            block_residual = np.abs(f).max()
            if block_residual <= _ROOT_TOL:
                break
            s = _clip(s - f / (sw2 * k0 - 1.0), a)
        iterations = max(iterations, step)
        residual = max(residual, block_residual)
        if not block_residual <= _ROOT_TOL:
            first = float(x[np.argmax(np.abs(f) > _ROOT_TOL)])
            raise ConvergenceError(
                f"covariance fixed point not found in {_MAX_NEWTON_ITER} "
                f"iterations (max residual {block_residual:.3e}; first "
                f"unconverged x.y = {first!r})"
            )
        one = x >= 1.0
        s[one], k0[one], k1[one] = a, 1.0, 1.0
        sigma_dot = sw2 * k0
        gap = 1.0 - sigma_dot
        if np.any(np.abs(gap) < _POLE_TOL):
            raise SingularityError("derivative covariance reached 1: frozen kernel")
        theta = params.sigma_v_sq * (k0 * s / gap + a * k1)
        for view, value in zip(views, (s, sigma_dot, theta)):
            view[lo:hi] = value
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
