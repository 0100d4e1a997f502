"""Convolutional equilibrium kernel: patch-trace tensors and fixed points.

Kernel state for a pair of P x Q images is a 4-way tensor indexed by two
pixel positions.  One covariance update applies the scalar dual-activation
map entrywise, sums matched-offset entries over the q x q convolution
windows (the patch-trace operator) and renormalizes by the corner-aware
pixel counts.  For unit pixels the renormalization keeps every pixel's
self-covariance equal to one scalar d, which follows d <- sigma_w_sq * d +
sigma_u_sq whatever the images (d = 1 under the unit-sum initialization),
so only the cross tensor of a pair is iterated.  The kernel tensor then
solves an affine fixed point and the scalar kernel value is its trace.
The kernel has no bias term.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, SingularityError
from .kernel import _k0, _k1
from .params import KernelParams

_PSD_TOL = 1e-8
_UNIT_PIXEL_TOL = 1e-9


@dataclass(frozen=True)
class ConvNormalizer:
    """Per-pixel window-count normalizer: s[i, j]^2 counts the in-bounds
    positions of the q x q window centered at (i, j)."""

    s: np.ndarray  # P x Q
    filter_size: int


def build_normalizer(P: int, Q: int, q: int) -> ConvNormalizer:
    if q < 1 or q % 2 == 0:
        raise ValueError("filter size must be odd and positive")
    if q > min(P, Q):
        raise ValueError("filter size exceeds image dimensions")
    r = (q - 1) // 2
    rows = np.minimum(np.arange(P) + r, P - 1) - np.maximum(np.arange(P) - r, 0) + 1
    cols = np.minimum(np.arange(Q) + r, Q - 1) - np.maximum(np.arange(Q) - r, 0) + 1
    counts = np.outer(rows, cols).astype(float)
    return ConvNormalizer(s=np.sqrt(counts), filter_size=q)


def patch_trace(M: np.ndarray, q: int) -> np.ndarray:
    """The linear operator summing matched-offset entries over q x q windows:
    out[i,j,i',j'] = sum_{a,b} M[i+a, j+b, i'+a, j'+b], zero-padded."""
    P, Q = M.shape[0], M.shape[1]
    if M.shape != (P, Q, P, Q):
        raise ValueError("expected a P x Q x P x Q tensor")
    r = (q - 1) // 2
    if r == 0:
        return M.copy()
    Mp = np.zeros((P + 2 * r, Q + 2 * r, P + 2 * r, Q + 2 * r), dtype=M.dtype)
    Mp[r : r + P, r : r + Q, r : r + P, r : r + Q] = M
    out = np.zeros_like(M)
    for a in range(q):
        for b in range(q):
            out += Mp[a : a + P, b : b + Q, a : a + P, b : b + Q]
    return out


def pixel_inner_tensor(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """K0[i,j,i',j'] = <x_ij, y_i'j'> over channels."""
    return np.einsum("ijc,klc->ijkl", x, y)


def validate_unit_pixels(x: np.ndarray) -> None:
    norms = np.linalg.norm(x, axis=-1)
    if np.any(np.abs(norms - 1.0) > _UNIT_PIXEL_TOL):
        raise DomainError("per-pixel channel vectors must be unit-normalized")


def cdeq_k_step(
    Sigma_prev: np.ndarray,
    K0: np.ndarray,
    params: KernelParams,
    diag: float = 1.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Entrywise dual-activation update of the covariance tensor.

    Returns (K, Kdot) where K feeds the patch trace of the next covariance
    and Kdot is the derivative multiplier of the kernel fixed point.
    ``diag`` is the self-covariance shared by every pixel of both images.
    """
    ratio = Sigma_prev / diag
    if np.any(np.abs(ratio) > 1.0 + _PSD_TOL):
        raise SingularityError(
            "covariance tensor is not PSD within tolerance (upstream bug)"
        )
    rho = np.clip(ratio, -1.0, 1.0)
    act = params.activation
    K = params.sigma_w_sq * diag * _k1(rho, act) + params.sigma_u_sq * K0
    Kdot = params.sigma_w_sq * _k0(rho, act)
    return K, Kdot


def _sigma_update(K: np.ndarray, norm: ConvNormalizer) -> np.ndarray:
    ss = norm.s[:, :, None, None] * norm.s[None, None, :, :]
    return patch_trace(K, norm.filter_size) / ss


def _tensor_diag(T: np.ndarray) -> np.ndarray:
    P, Q = T.shape[0], T.shape[1]
    return np.einsum("ijij->ij", T).reshape(P, Q)


def cdeq_sigma_fixed_point(
    x: np.ndarray,
    y: np.ndarray,
    q: int,
    params: KernelParams,
    tol: float = 1e-6,
    max_iter: int = 30,
) -> tuple[np.ndarray, np.ndarray]:
    """Iterate the (x, y) covariance tensor to its fixed point; returns the
    limiting (K*, Kdot*).

    The self-covariance diagonal d starts at 1 and follows d <- sigma_w_sq
    * d + sigma_u_sq alongside the tensor.  Convergence is declared when the
    tensor moves by at most ``tol`` in the entrywise max norm and d by at
    most ``tol``.
    """
    params.require_contraction()
    if params.sigma_b_sq != 0.0:
        raise DomainError(
            f"sigma_b_sq={params.sigma_b_sq}: the convolutional kernel has no "
            "bias term; set sigma_b_sq to 0"
        )
    validate_unit_pixels(x)
    validate_unit_pixels(y)
    norm = build_normalizer(x.shape[0], x.shape[1], q)
    sw2, su2 = params.sigma_w_sq, params.sigma_u_sq

    # A self pair's (i, j, i, j) entries are the self-covariance d itself;
    # pinning them keeps their correlation exactly 1 at the arccos cusp.
    self_pair = np.array_equal(x, y)
    K0 = pixel_inner_tensor(x, y)
    sigma = _sigma_update(K0, norm)
    d = 1.0
    if self_pair:
        np.einsum("ijij->ij", sigma)[...] = d
    for _ in range(max_iter):
        K, _ = cdeq_k_step(sigma, K0, params, d)
        new_sigma = _sigma_update(K, norm)
        new_d = sw2 * d + su2
        if self_pair:
            np.einsum("ijij->ij", new_sigma)[...] = new_d
        delta = max(float(np.max(np.abs(new_sigma - sigma))), abs(new_d - d))
        sigma, d = new_sigma, new_d
        if delta <= tol:
            _, Kdot = cdeq_k_step(sigma, K0, params, d)
            return sigma, Kdot
    raise ConvergenceError(
        f"covariance tensor did not converge to {tol} in {max_iter} iterations"
    )


def cdeq_theta(
    Kstar: np.ndarray,
    Kdotstar: np.ndarray,
    norm: ConvNormalizer,
    tol: float = 1e-8,
    max_iter: int = 10000,
) -> float:
    """Solve the affine kernel fixed point Theta = Kdot* (.) L(Theta) + K*
    by iteration and return its trace."""
    theta = Kstar.copy()
    for _ in range(max_iter):
        theta_new = Kdotstar * _sigma_update(theta, norm) + Kstar
        if float(np.max(np.abs(theta_new - theta))) <= tol:
            return float(np.sum(_tensor_diag(theta_new)))
        theta = theta_new
    raise ConvergenceError("kernel fixed point did not converge")


def cdeq_kernel_pair(
    x: np.ndarray,
    y: np.ndarray,
    q: int,
    params: KernelParams,
    sigma_tol: float = 1e-6,
    theta_tol: float = 1e-8,
    max_iter: int = 30,
) -> float:
    """Scalar convolutional kernel value for one image pair."""
    norm = build_normalizer(x.shape[0], x.shape[1], q)
    Kstar, Kdotstar = cdeq_sigma_fixed_point(
        x, y, q, params, tol=sigma_tol, max_iter=max_iter
    )
    return cdeq_theta(Kstar, Kdotstar, norm, tol=theta_tol)
