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

_MAX_NEWTON_ITER = 200
_ROOT_TOL = 1e-12
_POLE_TOL = 1e-14


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
    rho_dot_star: float  # derivative dual activation at the fixed point
    sigma_dot_star: float  # sigma_w_sq * rho_dot_star
    theta: float  # limiting kernel value, readout layer included
    iterations: int
    residual: float


def _as_correlation(rho):
    """Validate and clamp correlations to [-1, 1]."""
    arr = np.asarray(rho, dtype=float)
    if np.any(np.abs(arr) > 1.0 + BOUNDARY_SLACK):
        bad = np.max(np.abs(arr))
        raise DomainError(f"correlation magnitude {bad} exceeds 1")
    return np.clip(arr, -1.0, 1.0)


def _maybe_scalar(value, template):
    return float(value) if np.isscalar(template) else value


def _k1(rho, activation):
    """Dual activation at unit marginals, dispatched on the activation tag."""
    if activation == LINEAR:
        return np.asarray(rho, dtype=float)
    r = np.clip(np.asarray(rho, dtype=float), -1.0, 1.0)
    return (np.sqrt(1.0 - r * r) + (np.pi - np.arccos(r)) * r) / np.pi


def _k0(rho, activation):
    """Derivative dual activation at unit marginals."""
    r = np.asarray(rho, dtype=float)
    if activation == LINEAR:
        return np.ones_like(r)
    r = np.clip(r, -1.0, 1.0)
    return (np.pi - np.arccos(r)) / np.pi


def dual_activation(rho):
    """E[sigma(u) sigma(v)] for the normalized ReLU at correlation ``rho``.

    (u, v) are jointly standard normal with correlation rho; the closed form
    is (sqrt(1 - rho^2) + (pi - arccos(rho)) * rho) / pi.
    """
    return _maybe_scalar(_k1(_as_correlation(rho), NORMALIZED_RELU), rho)


def dual_activation_dot(rho):
    """E[sigma'(u) sigma'(v)] for the normalized ReLU: (pi - arccos(rho)) / pi."""
    return _maybe_scalar(_k0(_as_correlation(rho), NORMALIZED_RELU), rho)


def _diag_fixed_point(params: KernelParams) -> float:
    """Limit of the self-covariance for unit-norm inputs.

    The diagonal recursion a <- sigma_w_sq * a + sigma_u_sq + sigma_b_sq is
    affine, so its limit is closed-form.  Equals 1 under the unit-sum
    initialization.
    """
    return (params.sigma_u_sq + params.sigma_b_sq) / (1.0 - params.sigma_w_sq)


def _finite_depth(dot, d, params: KernelParams):
    """Run d interior layers of the covariance/kernel recursion and the
    readout layer, vectorized over ``dot``.

    Returns (rho, sigma_dot, theta, out): the correlation entering the
    readout, the last interior derivative covariance, the interior kernel
    and the kernel with the readout layer (sigma_v_sq times the dual
    activations).  The common self-covariance ``diag`` of both inputs is a
    scalar.
    """
    _as_correlation(dot)
    if d < 0:
        raise ValueError("depth must be nonnegative")
    sw2, su2, sb2 = params.sigma_w_sq, params.sigma_u_sq, params.sigma_b_sq
    act = params.activation
    dot = np.asarray(dot, dtype=float)

    diag = 1.0
    cov = dot.copy()
    sigma_dot = np.zeros_like(dot)
    theta = dot.copy()
    for _ in range(d):
        rho = np.clip(cov / diag, -1.0, 1.0)
        sigma_dot = sw2 * _k0(rho, act)
        cov = sw2 * diag * _k1(rho, act) + su2 * dot + sb2
        diag = sw2 * diag + su2 + sb2
        theta = sigma_dot * theta + cov
    rho = np.clip(cov / diag, -1.0, 1.0)
    out = params.sigma_v_sq * (_k0(rho, act) * theta + diag * _k1(rho, act))
    return rho, sigma_dot, theta, out


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
    point.  Returns (s*, rho_dot*, sigma_dot*, theta, iterations, residual).
    """
    _as_correlation(dot)
    params.require_contraction()
    sw2, su2, sb2 = params.sigma_w_sq, params.sigma_u_sq, params.sigma_b_sq
    act = params.activation
    dot = np.asarray(dot, dtype=float)
    a = _diag_fixed_point(params)

    inject = su2 * dot + sb2
    s = np.clip(inject / (1.0 - sw2), -a, a)
    for iterations in range(1, _MAX_NEWTON_ITER + 1):
        rho = np.clip(s / a, -1.0, 1.0)
        f = sw2 * a * _k1(rho, act) + inject - s
        if np.all(np.abs(f) <= _ROOT_TOL):
            break
        s = np.clip(s - f / (sw2 * _k0(rho, act) - 1.0), -a, a)
    residual = np.abs(f)
    del inject, f  # free the Newton work arrays, each the size of the Gram
    if np.any(residual > _ROOT_TOL):
        raise ConvergenceError(
            f"covariance fixed point not found in {_MAX_NEWTON_ITER} "
            f"iterations (max residual {np.max(residual):.3e})"
        )
    rho = np.clip(s / a, -1.0, 1.0)
    rho_dot = _k0(rho, act)
    sigma_dot = sw2 * rho_dot
    if np.any(np.abs(1.0 - sigma_dot) < _POLE_TOL):
        raise SingularityError("derivative covariance reached 1: frozen kernel")
    theta = params.sigma_v_sq * (rho_dot * s / (1.0 - sigma_dot) + a * _k1(rho, act))
    return s, rho_dot, sigma_dot, theta, iterations, residual


def solve_rho_star(dot, params: KernelParams):
    """Fixed point rho* of the covariance map for unit-norm inputs."""
    return _maybe_scalar(_fixed_point(dot, params)[0], dot)


def theta_deq_grid(dot, params: KernelParams):
    """Vectorized depth-limit kernel over an array of inner products."""
    return _maybe_scalar(_fixed_point(dot, params)[3], dot)


def theta_deq(dot: float, params: KernelParams) -> FixedPointResult:
    """Depth-limit kernel for one pair, with the fixed-point diagnostics."""
    s, rho_dot, sigma_dot, theta, iterations, residual = _fixed_point(
        float(dot), params
    )
    return FixedPointResult(
        rho_star=float(s),
        rho_dot_star=float(rho_dot),
        sigma_dot_star=float(sigma_dot),
        theta=float(theta),
        iterations=iterations,
        residual=float(residual),
    )


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
