"""Kernel mathematics for input-injected infinite-width networks.

Everything here reduces to one-dimensional recursions in the pairwise inner
product x.y: closed-form Gaussian dual activations, the covariance update
map, the finite-depth tangent-kernel recursion and its depth limit obtained
by root-finding.  For unit-norm inputs the self-covariance of every input
follows one scalar affine map, d <- sigma_w_sq * d + sigma_u_sq +
sigma_b_sq, so only the cross covariance is an array and the depth limit of
the diagonal is closed-form.  Both cores carry the cross covariance as its
gap u = d - cov to the diagonal, which keeps the digits that carry the
kernel where the correlation cov / d is near 1.

Each quantity has one array implementation; a scalar call runs it on one
element.  All functions are pure and accept either scalars or numpy arrays
of inner products; scalar in, scalar out.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError
from .params import LINEAR, NORMALIZED_RELU, KernelParams

#: Inputs this close to +-1 are treated as rounding noise and clamped.
BOUNDARY_SLACK = 1e-12
#: Largest |norm - 1| of a sample or pixel that the kernels accept as unit.
_UNIT_NORM_TOL = 1e-9

_MAX_NEWTON_ITER = 200
#: Newton freezes an entry once its step is at most this fraction of u.
_STEP_TOL = 1e-8
#: Below this angle g = sin(phi) - phi cos(phi) is its Taylor series; the
#: direct form loses ~eps / phi^2 of g to cancellation.
_SERIES_ANGLE = 0.05

#: Entries per block of the array cores and of a dense Gram's walk over its
#: dots.  A block's temporaries (256 KiB each) stay in a 2 MiB L2 cache
#: across Newton steps and layers.  On a 2-core AVX-512 Xeon, over 2M dots in
#: two runs, 32 and 64 Ki entries timed within noise of each other; 16 Ki was
#: up to 30% slower, 4 Ki 25-35% slower, and the whole array as one block
#: 1.8-2.2x as slow for the Newton solve and 1.6-2.1x for a depth-10 recursion.
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


def _clip(x, lo, hi):
    """``np.clip(x, lo, hi)`` by two ufuncs: np.clip's Python wrapper costs a
    third of a layer over the few hundred nodes of a Gram's fit."""
    return np.minimum(np.maximum(x, lo), hi)


def _as_correlation(rho):
    """``rho`` as a float array, checked to lie in [-1, 1] within
    ``BOUNDARY_SLACK`` by its extremes, without a full-size temporary."""
    arr = np.asarray(rho, dtype=float)
    if arr.size and not -1.0 - BOUNDARY_SLACK <= arr.min() <= arr.max() <= 1.0 + BOUNDARY_SLACK:
        raise DomainError(f"correlation magnitude {np.abs(arr).max()} is not at most 1")
    return arr


def _check_unit(x, message):
    """Raise ``DomainError(message)`` unless every vector along the last axis
    of ``x`` has unit norm within ``_UNIT_NORM_TOL``."""
    norms = np.sqrt(np.einsum("...i,...i->...", x, x))
    if not np.all(np.abs(norms - 1.0) <= _UNIT_NORM_TOL):
        raise DomainError(message)


def _maybe_scalar(value, template):
    return float(value) if np.isscalar(template) else value


def _duals(t, activation):
    """(phi / pi, g / pi) at gaps t = 1 - rho in [0, 2] (both recursions keep
    u in [0, 2 diag]), where phi = arccos(rho) = 2 asin(sqrt(t / 2)) and g =
    sin(phi) - phi cos(phi): k0 = 1 - phi / pi and 1 - k1 = t - g / pi, with
    no cancellation near rho = 1; both 0 for the linear activation.  Below
    ``_SERIES_ANGLE`` g is its Taylor series, run only when needed: in a =
    phi / 2, g / pi = (phi / pi) a^2 (4/3 - 8/15 a^2 + 8/105 a^4 - 16/2835 a^6).
    """
    if activation == LINEAR:
        return np.zeros_like(t), np.zeros_like(t)
    a = np.arcsin(np.sqrt(0.5 * t))
    p = a * (2.0 / np.pi)
    small = p < _SERIES_ANGLE / np.pi
    n = np.count_nonzero(small)
    if n < small.size or not small.size:
        q = np.sqrt(t * (2.0 - t)) * (1.0 / np.pi) - p * (1.0 - t)
        if n:  # the direct form is exact at t = 0 (x.y = 1), a fit node
            n -= t.size - np.count_nonzero(t)
    if n:
        y = a * a
        series = p * y * (4 / 3 - y * (8 / 15 - y * (8 / 105 - y * (16 / 2835))))
        q = series if n == small.size else np.where(small, series, q)
    return p, q


def _duals_at(rho, activation):
    """(k0, k1) at correlations ``rho`` clipped to [-1, 1]."""
    rho = _clip(rho, -1.0, 1.0)
    p, q = _duals(1.0 - rho, activation)
    return 1.0 - p, rho + q


def _k1(rho, activation):
    """Dual activation at unit marginals, dispatched on the activation tag,
    as an array (ufuncs turn a 0-d one into a scalar)."""
    return np.asarray(_duals_at(rho, activation)[1])


def dual_activation(rho):
    """E[sigma(u) sigma(v)] for the normalized ReLU at correlation ``rho``.

    (u, v) are jointly standard normal with correlation rho; the closed form
    is (sqrt(1 - rho^2) + (pi - arccos(rho)) * rho) / pi.
    """
    return _maybe_scalar(_k1(_as_correlation(rho), NORMALIZED_RELU), rho)


def dual_activation_dot(rho):
    """E[sigma'(u) sigma'(v)] for the normalized ReLU: (pi - arccos(rho)) / pi."""
    return _maybe_scalar(np.asarray(_duals_at(_as_correlation(rho), NORMALIZED_RELU)[0]), rho)


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


def _map_blocks(solve, dot, out=None):
    """``solve`` over each block of ``dot``'s entries, into ``out``: a new
    array by default, ``dot`` itself for a dense Gram written in place."""
    out = np.empty(dot.shape) if out is None else out
    flat, view = dot.reshape(-1), out.reshape(-1)
    for lo, hi in _blocks(flat.size):
        view[lo:hi] = solve(flat[lo:hi])
    return out


def _layer_diags(d, params: KernelParams):
    """Self-covariances of layers 0..d, cut before the first that is 0:
    without injection or bias sw2^l underflows to 0 (from layer 1 at sw2 =
    0), and with it every covariance and the kernel."""
    if d < 0:
        raise ValueError("depth must be nonnegative")
    diags = [1.0]
    for _ in range(d):
        diags.append(params.sigma_w_sq * diags[-1] + params.sigma_u_sq + params.sigma_b_sq)
    return diags[: diags.index(0.0)] if 0.0 in diags else diags


def _finite_depth(x, diags, params: KernelParams):
    """The layers of ``diags`` and the readout over inner products ``x``.

    Layer l maps the gap u = diags[l] - cov to sw2 diags[l] (1 - k1) + su2
    (1 - x.y) and the kernel to sw2 k0 theta + diags[l + 1] - u.  Returns
    (rho, sigma_dot, theta, out): the readout's correlation, the last
    interior sigma_dot, the interior kernel and the kernel with the readout.
    """
    sw2, act = params.sigma_w_sq, params.activation
    x = _clip(x, -1.0, 1.0)
    inject = params.sigma_u_sq * (1.0 - x)
    u, theta, sigma_dot = 1.0 - x, x, 0.0
    for diag, nxt in zip(diags, diags[1:]):
        t = u / diag
        p, q = _duals(t, act)
        sigma_dot = sw2 * (1.0 - p)
        u = (sw2 * diag) * (t - q) + inject
        theta = sigma_dot * theta + (nxt - u)
    t = u / diags[-1]
    p, q = _duals(t, act)
    out = params.sigma_v_sq * ((1.0 - p) * theta + diags[-1] * (1.0 - t + q))
    return 1.0 - t, sigma_dot, theta, out


def finite_depth_theta(dot, d, params: KernelParams, include_output_layer=True):
    """Vectorized finite-depth tangent-kernel values for inner products ``dot``."""
    dot = _as_correlation(dot)
    diags = _layer_diags(d, params)
    if len(diags) <= d:
        return _maybe_scalar(np.zeros(dot.shape), dot)
    pick = 3 if include_output_layer else 2
    return _maybe_scalar(_map_blocks(lambda x: _finite_depth(x, diags, params)[pick], dot), dot)


def finite_depth_ntk(dot, d: int, params: KernelParams) -> PairKernelState:
    """Finite-depth kernel state for one pair of unit-norm inputs: ``d``
    interior layers, then the readout (sigma_v_sq times the dual activations)."""
    diags = _layer_diags(d, params)
    rho, sigma_dot, _, out = _finite_depth(_as_correlation(dot).reshape(1), diags, params)
    return PairKernelState(
        rho=float(rho[0]), sigma_dot=float(np.ravel(sigma_dot)[0]),
        theta=float(out[0]) if len(diags) > d else 0.0, depth=d,
    )


def _iterate(x, step, operands, tol, max_iter, stage, what, name):
    """Iterate x <- step(x, *operands) over the entries along x's first axis.

    ``step`` returns the new iterate and each entry's change.  An entry stops
    at its first step whose change is <= ``tol``: it is frozen with the
    post-step iterate and leaves the batch with its operands, so its result
    does not depend on the other entries.  Returns (x*, each entry's change
    at its stop, the steps of the last entry to stop).

    Raises the package's one ``ConvergenceError``, named by ``stage``, the
    count of ``what`` and ``name(k)`` of the first failed entry k, when
    entries are still moving after ``max_iter`` steps, or at once when a
    step's change is not finite; then it reports the steps before that one.
    The observed contraction is the ratio of that entry's last two changes.
    """
    out, changes = np.empty(x.shape), np.empty(len(x))
    live, change = np.arange(len(x)), np.full(len(x), np.inf)
    last, iterations, steps, note = change, 0, max_iter, ""
    for it in range(1, max_iter + 1):
        if not live.size:
            break
        before, last, (x, change) = last, change, step(x, *operands)
        if not math.isfinite(np.maximum.reduce(change)):  # NaN propagates
            bad = ~np.isfinite(change)
            live, change, last, steps = live[bad], last[bad], before[bad], it - 1
            note = ", whose iterate or change is not finite"
            break
        if np.minimum.reduce(change) <= tol:  # one reduction where no entry stops
            done = change <= tol
            k, keep = live[done], ~done
            out[k], changes[k], iterations = x[done], change[done], it
            live, x, change, last = live[keep], x[keep], change[keep], last[keep]
            operands = tuple(o[keep] for o in operands)
    if not live.size:
        return out, changes, iterations
    with np.errstate(all="ignore"):  # a ratio of finite changes may overflow
        rate = f", observed contraction {change[0] / last[0]:.3g}" if steps > 1 else ""
    raise ConvergenceError(
        f"{stage}: {live.size} of {what} still moving after {steps} iterations "
        f"at tol={tol}; first is {name(live[0])}{note}, last change {change[0]:.3e}{rate}"
    )


def _fixed_point(x, params: KernelParams):
    """Depth-limit kernel quantities over a 1-D block of inner products.

    Newton solves F(u) = (1 - sw2) u - su2 (1 - x.y) + sw2 a g / pi = 0 for
    the gap u = a - s* of the covariance to the diagonal limit a (``_duals``
    at t = u / a).  F is convex and increasing, with F'(u) = (1 - sw2) + sw2
    phi / pi = 1 - sigma_dot >= 1 - sw2, so from the linear root u0 = su2 (1
    - x.y) / (1 - sw2) >= u* it falls to the root; x.y = 1 starts there.  An
    entry freezes with the post-step u once |du| <= _STEP_TOL u: Newton's
    next error is then at most about (|du| / u)^2 / 4 relative.  s* = s0 +
    (u0 - u*) moves from the linear root's covariance, so it keeps its own
    digits near 0.  The kernel is s* / (1 - sigma_dot*) plus the readout, a
    k1 = s* + a g / pi.  Returns (s*, phi / pi, theta, most steps of an
    entry, largest |F(u*)|).
    """
    sw2, act = params.sigma_w_sq, params.activation
    a = _diag_fixed_point(params)
    if a == 0.0:
        # Without injection or bias every covariance decays to 0 and every
        # correlation tends to 1, the only fixed point of k1: the kernel is 0.
        return np.zeros(x.size), np.zeros(x.size), np.zeros(x.size), 0, 0.0
    x = _clip(x, -1.0, 1.0)
    inject = params.sigma_u_sq * (1.0 - x)

    def step(u, inject):
        p, q = _duals(u / a, act)
        du = ((1.0 - sw2) * u - inject + (sw2 * a) * q) / ((1.0 - sw2) + sw2 * p)
        u = u - du
        return u, np.abs(du) / (u + 1e-300)  # finite at x.y = 1: u = du = 0

    u0 = inject / (1.0 - sw2)
    u, _, iterations = _iterate(
        u0, step, (inject,), _STEP_TOL, _MAX_NEWTON_ITER, "covariance Newton", f"{x.size} dots",
        lambda k: f"x.y = {float(x[k])!r}")
    p, q = _duals(u / a, act)
    slope = (1.0 - sw2) + sw2 * p
    s = (params.sigma_u_sq * x + params.sigma_b_sq) / (1.0 - sw2) + (u0 - u)
    theta = (1.0 - p) * s / slope + s + a * q
    residual = np.abs((1.0 - sw2) * u - inject + (sw2 * a) * q).max(initial=0.0)
    return s, p, params.sigma_v_sq * theta, iterations, float(residual)


def theta_deq_grid(dot, params: KernelParams):
    """Vectorized depth-limit kernel over an array of inner products."""
    dot = _as_correlation(dot)
    params.require_contraction()
    return _maybe_scalar(_map_blocks(lambda x: _fixed_point(x, params)[2], dot), dot)


def theta_deq(dot: float, params: KernelParams) -> FixedPointResult:
    """Depth-limit kernel for one pair, with the fixed-point diagnostics."""
    x = _as_correlation(dot).reshape(1)
    params.require_contraction()
    s, p, theta, iterations, residual = _fixed_point(x, params)
    return FixedPointResult(
        rho_star=float(s[0]), sigma_dot_star=float(params.sigma_w_sq * (1.0 - p[0])),
        theta=float(theta[0]), iterations=iterations, residual=float(residual),
    )


def theta_linear_deq(dot, params: KernelParams):
    """Closed-form depth-limit kernel of the linear (identity activation) DEQ:
    sigma_v_sq * (sigma_u_sq * x.y + sigma_b_sq)
    * (1/(1-sigma_w_sq)^2 + 1/(1-sigma_w_sq)).
    """
    params.require_contraction()
    inject = params.sigma_u_sq * _clip(_as_correlation(dot), -1.0, 1.0) + params.sigma_b_sq
    w = 1.0 - params.sigma_w_sq
    val = params.sigma_v_sq * inject * (1.0 / (w * w) + 1.0 / w)
    return _maybe_scalar(val, dot)
