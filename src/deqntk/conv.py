"""Convolutional equilibrium kernel: patch-trace fixed points per image pair.

Kernel state for a pair of P x Q images is a 4-way tensor indexed by two
pixel positions.  One covariance update applies the scalar dual-activation
map entrywise, sums matched-offset entries over the q x q convolution
windows (the patch-trace operator) and renormalizes by the corner-aware
pixel counts.  For unit pixels the renormalization keeps every pixel's
self-covariance equal to one scalar d, which follows d <- sigma_w_sq * d +
sigma_u_sq whatever the images (d = 1 under the unit-sum initialization),
so only the cross tensor of a pair is iterated.  The kernel tensor then
solves an affine fixed point and the scalar kernel value is its trace.
The kernel has no bias term and no readout layer.

Every one of these maps keeps the offset (i' - i, j' - j) of an entry, and
the trace reads only offset 0, so the kernel value needs only the P x Q
slice of entries (i, j, i, j).  On that slice the patch trace is a q x q
box sum with zero padding.  `cdeq_kernel_pair` and the Gram builders of
`deqntk.gram` run one solver, `_cdeq_pairs`, on such slices batched over
image pairs, at P * Q entries per pair and iteration.

The full-tensor path (`pixel_inner_tensor`, `patch_trace`,
`cdeq_sigma_fixed_point`, `_tensor_diag`) costs (P * Q)^2 * q^2 per pair and
iteration.  It is kept because the acceptance criteria inspect full
tensors, and the tests use it as the reference for the slice solver.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, SingularityError
from .kernel import _BLOCK, _check_unit, _k0_k1
from .params import KernelParams

_PSD_TOL = 1e-8
#: Step budget of the kernel fixed point, which contracts by at most
#: sigma_w_sq per step.
_THETA_MAX_ITER = 10_000


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
    _check_unit(x, "per-pixel channel vectors must be unit-normalized")


def _check_domain(params: KernelParams, images: np.ndarray) -> None:
    """The kernel needs a contraction, no bias or readout scale, unit pixels."""
    params.require_contraction()
    if params.sigma_b_sq != 0.0:
        raise DomainError(
            f"sigma_b_sq={params.sigma_b_sq}: the convolutional kernel has no "
            "bias term; set sigma_b_sq to 0"
        )
    if params.sigma_v_sq != 1.0:
        raise DomainError(
            f"sigma_v_sq={params.sigma_v_sq}: the convolutional kernel has no "
            "readout layer; set sigma_v_sq to 1"
        )
    validate_unit_pixels(images)


def cdeq_k_step(
    Sigma_prev: np.ndarray,
    K0: np.ndarray,
    params: KernelParams,
    diag: float = 1.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Entrywise dual-activation update of the covariance tensor.

    Returns (K, Kdot) where K feeds the patch trace of the next covariance
    and Kdot is the derivative multiplier of the kernel fixed point.
    ``diag`` is the self-covariance shared by every pixel of both images: a
    scalar, or one per pair as an array broadcasting against ``Sigma_prev``.
    """
    ratio = Sigma_prev / diag
    if np.any(np.abs(ratio) > 1.0 + _PSD_TOL):
        raise SingularityError(
            "covariance tensor is not PSD within tolerance (upstream bug)"
        )
    Kdot, k1 = _k0_k1(ratio, params.activation)
    K = params.sigma_w_sq * diag * k1 + params.sigma_u_sq * K0
    Kdot *= params.sigma_w_sq
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
    _check_domain(params, x)
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


def _slice_update(norm: ConvNormalizer):
    """The covariance update on offset-0 slices: M (pairs, P, Q) -> the q x q
    zero-padded box sum of each slice over s^2, from four corners of a 2-D
    cumulative sum."""
    P, Q = norm.s.shape
    r = (norm.filter_size - 1) // 2
    counts = norm.s**2
    if r == 0:
        return lambda M: M / counts
    rows, cols = np.arange(P), np.arange(Q)
    lo_r = np.maximum(rows - r, 0)[:, None] * (Q + 1)
    hi_r = np.minimum(rows + r + 1, P)[:, None] * (Q + 1)
    lo_c = np.maximum(cols - r, 0)
    hi_c = np.minimum(cols + r + 1, Q)
    # flat indices into the (P + 1) x (Q + 1) table of the corners of each box
    corners = [a + b for a in (hi_r, lo_r) for b in (hi_c, lo_c)]

    def update(M):
        C = np.zeros((M.shape[0], P + 1, Q + 1))
        C[:, 1:, 1:] = M.cumsum(axis=1).cumsum(axis=2)
        hh, lh, hl, ll = (C.reshape(len(C), -1).take(c, axis=1) for c in corners)
        return (hh - lh - hl + ll) / counts

    return update


def _max_change(new, old):
    """Max absolute change over each pair's slice."""
    return np.abs(new - old).reshape(len(new), -1).max(axis=1)


def _iterate_pairs(x, step, operands, tol, max_iter):
    """Iterate x <- step(x, it, *operands) on a (pairs, P, Q) array.

    ``step`` returns the new iterate and each pair's change.  A pair stops at
    its first step whose change is <= ``tol``; it is then frozen and leaves
    the batch with its operands, so its result does not depend on the other
    pairs.  Returns (x*, stop, missed): stop[k] is the step pair k stopped
    at, and missed lists (k, change) for the pairs still moving after
    ``max_iter`` steps.
    """
    out = np.empty(x.shape)
    stop = np.zeros(len(x), dtype=int)
    live = np.arange(len(x))
    change = np.full(len(x), np.inf)
    for it in range(1, max_iter + 1):
        x, change = step(x, it, *operands)
        done = change <= tol
        if done.any():
            out[live[done]] = x[done]
            stop[live[done]] = it
            keep = ~done
            live, x, change = live[keep], x[keep], change[keep]
            operands = tuple(o[keep] for o in operands)
            if not live.size:
                break
    return out, stop, list(zip(live, change))


def _cdeq_pairs(
    X: np.ndarray,
    Y: np.ndarray,
    rows,
    cols,
    q: int,
    params: KernelParams,
    sigma_tol: float = 1e-6,
    theta_tol: float = 1e-8,
    max_iter: int = 30,
) -> np.ndarray:
    """Kernel values of the image pairs (X[rows[k]], Y[cols[k]]).

    Runs the covariance and kernel fixed points on offset-0 slices, walking
    the pairs in blocks of about ``_BLOCK`` entries.  A self pair (equal
    images) has its slice pinned to d.  Each pair stops on its own slice:
    the covariance when its max change is <= ``sigma_tol``, the kernel when
    the bound on its trace's error is <= ``theta_tol``.  A value therefore
    equals the one computed on a batch of one.
    """
    _check_domain(params, X)
    if X.shape[1:] != Y.shape[1:]:
        raise ValueError(f"image shapes differ: {X.shape[1:]} and {Y.shape[1:]}")
    if Y is not X:
        validate_unit_pixels(Y)
    rows, cols = np.asarray(rows, dtype=int), np.asarray(cols, dtype=int)
    norm = build_normalizer(X.shape[1], X.shape[2], q)
    update = _slice_update(norm)
    ds = [1.0]  # the self-covariance d after each covariance step
    for _ in range(max_iter):
        ds.append(params.sigma_w_sq * ds[-1] + params.sigma_u_sq)

    def sigma_step(sigma, it, K0, self_pair):
        K, _ = cdeq_k_step(sigma, K0, params, ds[it - 1])
        new = update(K)
        new[self_pair] = ds[it]
        return new, np.maximum(_max_change(new, sigma), abs(ds[it] - ds[it - 1]))

    def theta_step(theta, it, Kdot, Kstar, gain):
        new = Kdot * update(theta) + Kstar
        return new, gain * _max_change(new, theta)

    values = np.empty(rows.size)
    misses = {"covariance": [], "kernel": []}
    per_block = max(1, _BLOCK // (X.shape[1] * X.shape[2]))
    for lo in range(0, rows.size, per_block):
        x, y = X[rows[lo : lo + per_block]], Y[cols[lo : lo + per_block]]
        # channel by channel, so that no layout changes the order of the sum
        K0 = sum(x[..., c] * y[..., c] for c in range(x.shape[-1]))
        self_pair = np.all(x == y, axis=(1, 2, 3))
        sigma = update(K0)
        sigma[self_pair] = ds[0]
        sigma, stop, missed = _iterate_pairs(
            sigma, sigma_step, (K0, self_pair), sigma_tol, max_iter
        )
        misses["covariance"] += [(lo + k, change) for k, change in missed]
        if misses["covariance"]:
            continue  # no value is returned; count the rest of the misses
        _, Kdot = cdeq_k_step(sigma, K0, params, np.array(ds)[stop, None, None])
        # The kernel map contracts by L = max Kdot in the max norm (the box
        # average does not expand it), so P*Q*L/(1 - L) times a step's max
        # change bounds the error of the trace.
        L = Kdot.reshape(len(x), -1).max(axis=1)
        gain = Kdot[0].size * L / (1.0 - L)
        theta, _, missed = _iterate_pairs(
            sigma, theta_step, (Kdot, sigma, gain), theta_tol, _THETA_MAX_ITER
        )
        misses["kernel"] += [(lo + k, change) for k, change in missed]
        # fsum rounds each trace once, whatever the batch and its layout
        traces = theta.reshape(len(x), -1).tolist()
        values[lo : lo + len(x)] = [math.fsum(t) for t in traces]
    for stage, tol, budget, measure in (
        ("covariance", sigma_tol, max_iter, "max change"),
        ("kernel", theta_tol, _THETA_MAX_ITER, "trace error bound"),
    ):
        if misses[stage]:
            k, change = misses[stage][0]
            raise ConvergenceError(
                f"{stage} fixed point: {len(misses[stage])} of {rows.size} image "
                f"pairs did not converge to tol={tol} in {budget} iterations; "
                f"first is images ({rows[k]}, {cols[k]}), {measure} "
                f"{change:.3e} at the budget"
            )
    return values


def cdeq_kernel_pair(
    x: np.ndarray,
    y: np.ndarray,
    q: int,
    params: KernelParams,
    sigma_tol: float = 1e-6,
    theta_tol: float = 1e-8,
    max_iter: int = 30,
) -> float:
    """Scalar convolutional kernel value for one image pair: the batched
    slice solver on a batch of one.

    The covariance iteration stops when the pair's offset-0 slice moves by
    at most ``sigma_tol`` (and d by at most ``sigma_tol``) within
    ``max_iter`` steps; the kernel iteration stops when the bound on the
    kernel value's error is at most ``theta_tol``.
    """
    zero = np.zeros(1, dtype=int)
    return float(
        _cdeq_pairs(x[None], y[None], zero, zero, q, params, sigma_tol,
                    theta_tol, max_iter)[0]
    )
