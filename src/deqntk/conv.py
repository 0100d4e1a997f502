"""Convolutional equilibrium kernel: patch-trace fixed points per image pair.

Kernel state for a pair of P x Q images is a 4-way tensor indexed by two
pixel positions.  One covariance update applies the scalar dual-activation
map entrywise, sums matched-offset entries over the q x q convolution
windows (the patch-trace operator) and renormalizes by the corner-aware
pixel counts.  For unit pixels this keeps every pixel's self-covariance at
the closed-form d* = sigma_u_sq / (1 - sigma_w_sq) (the covariance starts
at d* times the window average of the pixel inner products), so only the
cross tensor of a pair is iterated.  The kernel tensor then solves an
affine fixed point and the scalar kernel value is its trace.  The kernel
has no bias term and no readout layer.

Every one of these maps keeps the offset (i' - i, j' - j) of an entry, and
the trace reads only offset 0, so the kernel value needs only the P x Q
slice of entries (i, j, i, j), where the patch trace is a q x q box sum.
`cdeq_kernel_pair` and the Gram builders of `deqntk.gram` run one solver,
`_cdeq_pairs`, on such slices batched over image pairs.  A pair of equal
images is not iterated: its slice is d* at every step, so its kernel is
P * Q * d* / (1 - sigma_w_sq).

The full-tensor path (`pixel_inner_tensor`, `patch_trace`,
`cdeq_sigma_fixed_point`, `_tensor_diag`) is kept because the acceptance
criteria inspect full tensors, and the tests use it as the reference for
the slice solver.  Both paths sum windows by separable shifted adds in
`_box_sum` and iterate in `kernel._iterate`, the package's one fixed-point
loop, which raises a stage's `ConvergenceError`: `_cdeq_pairs` raises from
the first block of pairs that stalls, with that block's count.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SingularityError
from .kernel import (
    _BLOCK, _check_unit, _diag_fixed_point, _duals_at, _iterate,
)
from .params import KernelParams

_PSD_TOL = 1e-8
#: Defaults of both fixed points: the accuracy target, relative to the
#: diagonal (see ``_cdeq_pairs``), and the step budget of each.
_TOL = 1e-7
_MAX_ITER = 10_000


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


def _box_sum(M: np.ndarray, q: int, *groups: tuple[int, ...]) -> np.ndarray:
    """Zero-padded q-wide box sum of ``M`` over each group of axes in turn,
    the axes of a group shifted together: for the group (u, v), out[.., i,
    .., i', ..] sums M[.., i + a, .., i' + a, ..] over |a| <= (q - 1) / 2.
    A group costs q - 1 shifted adds, each rounding an entry once."""
    for axes in groups:
        out = M.copy()
        for a in range(1, (q + 1) // 2):
            head, tail = [slice(None)] * M.ndim, [slice(None)] * M.ndim
            for axis in axes:
                head[axis], tail[axis] = slice(None, -a), slice(a, None)
            out[tuple(head)] += M[tuple(tail)]
            out[tuple(tail)] += M[tuple(head)]
        M = out
    return M


def patch_trace(M: np.ndarray, q: int) -> np.ndarray:
    """The linear operator summing matched-offset entries over q x q windows:
    out[i,j,i',j'] = sum_{a,b} M[i+a, j+b, i'+a, j'+b], zero-padded."""
    P, Q = M.shape[0], M.shape[1]
    if M.shape != (P, Q, P, Q):
        raise ValueError("expected a P x Q x P x Q tensor")
    return _box_sum(M, q, (0, 2), (1, 3))


def pixel_inner_tensor(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """K0[i,j,i',j'] = <x_ij, y_i'j'> over channels."""
    return np.einsum("ijc,klc->ijkl", x, y)


def _check_domain(params: KernelParams, x: np.ndarray, y: np.ndarray) -> None:
    """The kernel needs a contraction with injection (else d* = 0 and the
    kernel vanishes), no bias or readout scale, and images of one shape with
    unit pixels; ``x`` and ``y`` hold one image each or a stack of them."""
    params.require_contraction()
    for name, ok, rule in (
        ("sigma_u_sq", params.sigma_u_sq > 0.0, "needs injection; set it above 0"),
        ("sigma_b_sq", params.sigma_b_sq == 0.0, "has no bias term; set it to 0"),
        ("sigma_v_sq", params.sigma_v_sq == 1.0, "has no readout layer; set it to 1"),
    ):
        if not ok:
            raise DomainError(
                f"{name}={getattr(params, name)}: the convolutional kernel {rule}"
            )
    if x.shape[-3:] != y.shape[-3:]:
        raise ValueError(f"image shapes differ: {x.shape[-3:]} and {y.shape[-3:]}")
    for images in (x,) if y is x else (x, y):
        _check_unit(images, "per-pixel channel vectors must be unit-normalized")


def cdeq_k_step(Sigma_prev: np.ndarray, K0: np.ndarray, params: KernelParams):
    """Entrywise dual-activation update of the covariance tensor.

    Returns (K, Kdot) where K feeds the patch trace of the next covariance
    and Kdot is the derivative multiplier of the kernel fixed point.  Every
    pixel's self-covariance is d* (``kernel._diag_fixed_point``).
    """
    d = _diag_fixed_point(params)
    ratio = Sigma_prev / d
    if not np.all(np.abs(ratio) <= 1.0 + _PSD_TOL):
        raise SingularityError(
            "covariance tensor is not PSD within tolerance (upstream bug)"
        )
    k0, k1 = _duals_at(ratio, params.activation)
    return params.sigma_w_sq * d * k1 + params.sigma_u_sq * K0, params.sigma_w_sq * k0


def _sigma_update(K: np.ndarray, norm: ConvNormalizer) -> np.ndarray:
    ss = norm.s[:, :, None, None] * norm.s[None, None, :, :]
    return patch_trace(K, norm.filter_size) / ss


def _tensor_diag(T: np.ndarray) -> np.ndarray:
    P, Q = T.shape[0], T.shape[1]
    return np.einsum("ijij->ij", T).reshape(P, Q)


def _max_change(new, old):
    """Max absolute change over each pair's slice or tensor."""
    return np.abs(new - old).reshape(len(new), -1).max(axis=1)


def _covariance_gain(params: KernelParams) -> float:
    """Times a step's max change, a bound on the covariance's error relative
    to d*: the map contracts by sigma_w_sq in the max norm (criterion 12)."""
    return params.sigma_w_sq / ((1.0 - params.sigma_w_sq) * _diag_fixed_point(params))


def cdeq_sigma_fixed_point(
    x: np.ndarray,
    y: np.ndarray,
    q: int,
    params: KernelParams,
    tol: float = _TOL,
    max_iter: int = _MAX_ITER,
) -> tuple[np.ndarray, np.ndarray]:
    """Iterate the (x, y) covariance tensor to its fixed point; returns the
    limiting (K*, Kdot*).

    The tensor starts at d* times the window average of the pixel inner
    products and stops, within ``max_iter`` steps, once the bound on its
    error relative to d* is at most ``tol``.  For a self pair the (i, j, i,
    j) entries are d* itself; pinning them keeps their correlation exactly
    1 at the arccos cusp.
    """
    _check_domain(params, x, y)
    norm = build_normalizer(x.shape[0], x.shape[1], q)
    d, gain = _diag_fixed_point(params), _covariance_gain(params)
    self_pair = np.array_equal(x, y)

    def step(sigma, K0):
        new = _sigma_update(cdeq_k_step(sigma[0], K0[0], params)[0], norm)
        if self_pair:
            np.einsum("ijij->ij", new)[...] = d
        return new[None], gain * _max_change(new[None], sigma)

    K0 = pixel_inner_tensor(x, y)
    sigma, _, _ = _iterate(d * _sigma_update(K0, norm)[None], step, (K0[None],), tol, max_iter,
                           "covariance fixed point", "1 image pairs", lambda k: "images (0, 0)")
    return sigma[0], cdeq_k_step(sigma[0], K0, params)[1]


def _cdeq_pairs(X, Y, rows, cols, q: int, params: KernelParams,
                sigma_tol=_TOL, max_iter=_MAX_ITER):
    """Kernel values of the image pairs (X[rows[k]], Y[cols[k]]).

    Runs the covariance and kernel fixed points on offset-0 slices, walking
    the pairs in blocks of about ``_BLOCK`` entries.  A self pair (equal
    images) takes its closed form P * Q * d* / (1 - sigma_w_sq), the Gram's
    diagonal, which bounds every entry.  Each other pair stops each stage on
    its own slice, within ``max_iter`` steps, once the bound on the stage's
    error relative to that diagonal is at most ``sigma_tol``, so a value
    equals the one computed on a batch of one.  The covariance's error also
    reaches the kernel through Kdot, whose cusp at correlation 1 no bound
    covers: a value's error is measured, not proven (``scripts/conv_tol.py``).
    """
    _check_domain(params, X, Y)
    rows, cols = np.asarray(rows, dtype=int), np.asarray(cols, dtype=int)
    P, Q = X.shape[1], X.shape[2]
    counts = build_normalizer(P, Q, q).s ** 2
    d, sw2, sigma_gain = _diag_fixed_point(params), params.sigma_w_sq, _covariance_gain(params)

    def average(M):
        return _box_sum(M, q, (1,), (2,)) / counts

    def sigma_step(sigma, K0):
        new = average(cdeq_k_step(sigma, K0, params)[0])
        return new, sigma_gain * _max_change(new, sigma)

    def theta_step(theta, Kdot, Kstar, gain):
        new = Kdot * average(theta) + Kstar
        return new, gain * _max_change(new, theta)

    def name(k):  # the k-th iterated pair of the current block
        return f"images ({rows[pairs[k]]}, {cols[pairs[k]]})"

    values = np.empty(rows.size)
    per_block = max(1, _BLOCK // (P * Q))
    for lo in range(0, rows.size, per_block):
        x, y = X[rows[lo : lo + per_block]], Y[cols[lo : lo + per_block]]
        # A self pair's slice is d* at every step, where Kdot = sigma_w_sq
        # and K = d*, so its kernel tensor is d* / (1 - sigma_w_sq) there.
        same = np.all(x == y, axis=(1, 2, 3))
        values[lo : lo + len(x)][same] = P * Q * d / (1.0 - sw2)
        pairs = lo + np.flatnonzero(~same)
        if not pairs.size:
            continue
        block = f"{len(x)} image pairs"
        x, y = x[~same], y[~same]
        # channel by channel, so that no layout changes the order of the sum
        K0 = sum(x[..., c] * y[..., c] for c in range(x.shape[-1]))
        sigma, _, _ = _iterate(d * average(K0), sigma_step, (K0,), sigma_tol, max_iter,
                               "covariance fixed point", block, name)
        _, Kdot = cdeq_k_step(sigma, K0, params)
        # The kernel map contracts by L = max Kdot in the max norm (the box
        # average does not expand it), so P*Q*L/(1 - L) times a step's max
        # change bounds the error of the trace; divided by the diagonal,
        # P*Q cancels.
        L = Kdot.reshape(len(x), -1).max(axis=1)
        theta, _, _ = _iterate(
            sigma, theta_step, (Kdot, sigma, L * (1.0 - sw2) / ((1.0 - L) * d)),
            sigma_tol, max_iter, "kernel fixed point", block, name,
        )
        # fsum rounds each trace once, whatever the batch and its layout
        values[pairs] = [math.fsum(t) for t in theta.reshape(len(x), -1).tolist()]
    return values


def cdeq_kernel_pair(
    x: np.ndarray,
    y: np.ndarray,
    q: int,
    params: KernelParams,
    sigma_tol: float = _TOL,
    max_iter: int = _MAX_ITER,
) -> float:
    """Scalar convolutional kernel value for one image pair: the batched
    slice solver ``_cdeq_pairs``, with its target and budget, on a batch of
    one."""
    zero = np.zeros(1, dtype=int)
    return float(
        _cdeq_pairs(x[None], y[None], zero, zero, q, params, sigma_tol, max_iter)[0]
    )
