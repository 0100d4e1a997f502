"""Gram-matrix assembly, label encoding and regularized kernel regression.

Dense kernels (fixed-point and finite-depth, either activation) depend on a
pair only through its inner product, so a dense Gram is its dot matrix,
overwritten block by block with the kernel's values.  A nonlinear one solves
exactly only at a few Chebyshev nodes in arccos(x.y) over its entries' range
and evaluates that checked fit, noise tail chopped, at every entry.  A
convolutional Gram is one batched solve over the image pairs of its upper
triangle, then mirrored (or of the test x train grid); each entry is a pure
function of its two images and equals ``cdeq_kernel_pair`` exactly.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import chebyshev

from .conv import _cdeq_pairs
from .kernel import (
    _BLOCK, _as_correlation, _blocks, _check_unit, _map_blocks, finite_depth_theta,
    theta_deq_grid, theta_linear_deq,
)
from .params import LINEAR, KernelParams

log = logging.getLogger(__name__)

DEQ_NTK = "deq-ntk"
FINITE_DEPTH_NTK = "finite-depth-ntk"
VANILLA_NTK = "vanilla-ntk"
CDEQ_NTK = "cdeq-ntk"

#: Relative jitter ladder tried when a regularized factorization fails.
_JITTER_LADDER = (0.0, 1e-10, 1e-8, 1e-6, 1e-4)

#: An angle fit is accepted once max|fit - exact| at its check points
#: is at most FIT_TOL times the largest |exact| there.
FIT_TOL = 2e-11
#: Fit degrees tried in turn on one range of angles.
_FIT_DEGREES = (16, 32, 64, 128)

#: Side of the tiles ``_mirror_lower`` copies, and its diagonal tiles' mask.
_TILE = 128
_STRICT_UPPER = np.triu(np.ones((_TILE, _TILE), dtype=bool), 1)


@dataclass(frozen=True)
class GramMatrix:
    """Symmetric kernel matrix over one dataset."""

    values: np.ndarray


def _dot_matrix(rows: np.ndarray, cols: np.ndarray | None = None) -> np.ndarray:
    """Inner products of the unit-norm ``rows`` with ``cols``, clipped to
    [-1, 1], C-ordered; without ``cols``, the exactly symmetric self Gram of
    ``rows``.  Both products read the samples in place through scipy's
    OpenBLAS, the one that factors the regression's Gram: numpy bundles a
    second one, and each library's idle threads spin on the cores the
    other's next call needs."""
    from scipy.linalg.blas import dgemm, dsyrk  # loaded on first use, as in the solve

    for x in (rows,) if cols is None else (rows, cols):
        _check_unit(x, "dense kernels require unit-normalized samples")
    if cols is not None:
        dots = dgemm(1.0, cols.T, rows.T, trans_a=1).T
        return np.clip(dots, -1.0, 1.0, out=dots)
    dots = dsyrk(1.0, rows.T, trans=1).T  # the lower triangle filled
    _mirror_lower(dots, -1.0, 1.0)
    # The self inner product is 1 by definition, and at the kernel's
    # square-root cusp there the BLAS product's rounding must not leak.
    np.fill_diagonal(dots, 1.0)
    return dots


def _mirror_lower(a, lo=-np.inf, hi=np.inf):
    """Clip the lower triangle of the square ``a``, diagonal included, to
    [lo, hi] and copy it onto the strict upper one, so ``a`` is exactly
    symmetric.  It goes tile by tile, each clipped in place just before its
    transposed copy reads it back from cache."""
    n = a.shape[0]
    for i in range(0, n, _TILE):
        rows = slice(i, i + _TILE)
        for j in range(0, i, _TILE):
            cols = slice(j, j + _TILE)
            a[cols, rows] = np.clip(a[rows, cols], lo, hi, out=a[rows, cols]).T
        tile = np.clip(a[rows, rows], lo, hi, out=a[rows, rows])
        np.copyto(tile, tile.T, where=_STRICT_UPPER[: tile.shape[0], : tile.shape[0]])


def kernel_from_dots(
    dots: np.ndarray,
    kernel_tag: str,
    params: KernelParams,
    depth: int | None = None,
) -> np.ndarray:
    """Kernel values for an array of inner products (dense tags); ``dots`` is not written."""
    values = np.clip(_as_correlation(dots), -1.0, 1.0, out=np.empty(np.shape(dots)))
    return _kernel_in_place(values, kernel_tag, params, depth)


def _kernel_in_place(dots, kernel_tag, params, depth):
    """Overwrite ``dots``, C-ordered in [-1, 1], with the kernel block by block."""
    if kernel_tag == DEQ_NTK and params.activation == LINEAR:
        # affine in x.y; crosses 0, so no relative fit bound
        evaluate = lambda x: theta_linear_deq(x, params)
    elif kernel_tag == DEQ_NTK:
        evaluate = _fitted_gram(dots, lambda x: theta_deq_grid(x, params),
                                kernel_tag, "the exact Newton solve")
    elif kernel_tag in (FINITE_DEPTH_NTK, VANILLA_NTK):
        if depth is None:
            raise ValueError(f"{kernel_tag} requires a depth")
        if kernel_tag == VANILLA_NTK and params.sigma_u_sq != 0.0:
            raise ValueError("vanilla kernel expects sigma_u_sq = 0")
        evaluate = _fitted_gram(dots, lambda x: finite_depth_theta(x, depth, params),
                                f"{kernel_tag} depth {depth}", "the exact recursion")
    else:
        raise ValueError(f"unknown dense kernel tag {kernel_tag!r}")
    evaluate(dots.reshape(-1)[:0])  # checks the parameters, an empty Gram's too
    return _map_blocks(evaluate, dots, out=dots)


def _fitted_gram(dots, exact, label, exact_name):
    """Evaluator of the blocks of ``dots``: a Chebyshev fit in phi =
    arccos(dot) to ``exact``, the kernel's solver over an array of dots.

    The kernel is smooth in phi, so it is interpolated on [phi_min, phi_max]
    of the entries with dot < 1, the angles of the largest such dot and of
    the smallest dot; dot = 1 takes the exact value, solved with the fit's
    nodes.  The fit works in the block it is given.  Ranges of one angle, and
    ranges no degree fits, get ``exact`` itself; the latter is logged as a
    warning.  ``label`` and ``exact_name`` name the kernel and its solver.
    """
    flat = dots.reshape(-1)
    below_one = [flat[a:b].max(where=flat[a:b] < 1.0, initial=-1.0)
                 for a, b in _blocks(flat.size)]
    lo, hi = np.arccos(max(below_one, default=-1.0)), np.arccos(flat.min(initial=1.0))
    if hi > lo:
        coef, at_one, err = _angle_fit(exact, lo, hi)
        if err <= FIT_TOL:
            mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
            work = np.empty((4, min(flat.size, _BLOCK)))

            def fit(block):
                one = block >= 1.0
                np.arccos(block, out=block)
                block -= mid
                block /= half
                values = _clenshaw(block, coef, work)
                np.copyto(values, at_one, where=one)
                return values
            return fit
        log.warning("%s: Chebyshev fit on angles [%.6g, %.6g] reached %.2e "
                    "relative at degree %d, above %.0e; running %s on every entry",
                    label, lo, hi, err, coef.size - 1, FIT_TOL, exact_name)
    return exact


def _clenshaw(x, c, work):
    """``chebyshev.chebval(x, c)`` bit for bit, for 1-D ``x`` and ``c``: the
    same recurrence, its arrays the rows of ``work`` (4 x at least x.size),
    and the sum written over ``x``."""
    x2, b0, p, q = work[:, : x.size]
    c0, c1 = (c[0], 0.0) if c.size == 1 else (c[-2], c[-1])
    if c.size > 2:
        np.multiply(x, 2.0, out=x2)
        for ck in c[-3::-1]:
            t = q if c1 is p else p
            np.multiply(c1, x2, out=t)
            t += c0
            c0, c1 = np.subtract(ck, c1, out=b0), t
    np.multiply(c1, x, out=x)
    x += c0
    return x


def _angle_fit(exact, lo, hi):
    """Chebyshev coefficients of ``exact`` in u = (phi - mid) / half on [lo,
    hi] = [mid - half, mid + half], the exact value at dot = 1 and the fit's
    relative error at its check points, for the first degree in
    ``_FIT_DEGREES`` whose error is within ``FIT_TOL`` (else the last).  An
    accepted fit drops its trailing coefficients while their |c_k| sum to at
    most min(miss, FIT_TOL * scale - miss), for the check's absolute miss
    and max|exact| scale (Aurentz & Trefethen, 2017).

    A degree-n fit interpolates at the n + 1 Chebyshev points of the first
    kind and is checked at the n + 2 points interleaved with them, the
    interval's ends included; one exact call gives both.  Each point is
    placed at the angle arccos(cos(phi)) of the dot the solver sees, which
    near phi = 0 differs from the ideal point by much of the angle itself.
    """
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    for n in _FIT_DEGREES:
        dots = np.cos(mid + half * np.cos(np.pi * np.arange(2 * n + 3) / (2 * n + 2)))
        values = exact(np.append(dots, 1.0))
        at_one, values = values[-1], values[:-1]
        u = (np.arccos(dots) - mid) / half
        coef = chebyshev.chebfit(u[1::2], values[1::2], n)
        miss = np.max(np.abs(chebyshev.chebval(u[::2], coef) - values[::2]))
        scale = max(np.max(np.abs(values)), np.finfo(float).tiny)
        err = miss / scale
        if err <= FIT_TOL:
            coef = _chop(coef, min(miss, FIT_TOL * scale - miss))
            break
    return coef, at_one, err


def _chop(coef, slack):
    """``coef`` less its longest tail with sum |c_k| <= ``slack``, the
    constant kept; as |T_k| <= 1, the series moves by at most that sum."""
    tail = np.cumsum(np.abs(coef[:0:-1]))
    return coef[: coef.size - np.count_nonzero(tail <= slack)]


def assemble_gram(
    features: np.ndarray,
    kernel_tag: str,
    params: KernelParams,
    depth: int | None = None,
    filter_size: int = 3,
) -> GramMatrix:
    """Kernel matrix over ``features``: N x m unit-norm rows for the dense
    tags, N x P x Q x C unit-pixel images for the convolutional one.

    The matrix is exactly symmetric.  A dense tag evaluates every entry of
    the dot matrix, one ``syrk`` triangle mirrored onto the other, from its
    own dot alone; the convolutional tag solves the upper triangle, diagonal
    included, in one call over its pairs in row-major order and mirrors it.
    """
    n = features.shape[0]
    if kernel_tag == CDEQ_NTK:
        rows, cols = np.triu_indices(n)
        values = np.empty((n, n))
        values[rows, cols] = values[cols, rows] = _cdeq_pairs(
            features, features, rows, cols, filter_size, params)
    else:
        values = _kernel_in_place(_dot_matrix(features), kernel_tag, params, depth)
    return GramMatrix(values=values)


def cross_gram(
    test_features: np.ndarray,
    train_features: np.ndarray,
    kernel_tag: str,
    params: KernelParams,
    depth: int | None = None,
    filter_size: int = 3,
) -> np.ndarray:
    """N_test x N_train matrix of kernel(test_i, train_j)."""
    if kernel_tag == CDEQ_NTK:
        shape = (test_features.shape[0], train_features.shape[0])
        rows, cols = np.indices(shape).reshape(2, -1)
        return _cdeq_pairs(
            test_features, train_features, rows, cols, filter_size, params
        ).reshape(shape)
    dots = _dot_matrix(test_features, train_features)
    return _kernel_in_place(dots, kernel_tag, params, depth)


def encode_labels(labels, num_classes: int) -> np.ndarray:
    """One-hot targets with 0.9 at the class index and -0.1 elsewhere."""
    labels = np.asarray(labels, dtype=int)
    if labels.ndim != 1:
        raise ValueError("labels must be one-dimensional")
    if np.any(labels < 0) or np.any(labels >= num_classes):
        raise ValueError("label outside [0, num_classes)")
    out = np.full((labels.size, num_classes), -0.1)
    out[np.arange(labels.size), labels] = 0.9
    return out


def regress_and_score(
    train_gram: np.ndarray,
    cross: np.ndarray,
    train_labels,
    test_labels,
    reg_eps: float,
    num_classes: int = 10,
    *,
    _in_place: bool = False,
) -> float:
    """Kernel ridge regression accuracy.

    Solves (K + rI) alpha = Y with r = reg_eps * (tr K / N) / N and scores
    argmax predictions (ties to the lowest class index).  With reg_eps = 0
    no regularization or jitter is applied and a singular system is an
    error; with reg_eps > 0 a relative jitter ladder handles marginal
    factorizations, and a step above 0 is logged as a warning.  Only the
    lower triangle of ``train_gram``, diagonal included, is read, and a
    non-finite entry anywhere in it is an error.

    ``train_gram`` is never written: the solve factors a symmetric copy of
    it.  ``regress`` and ``depth_sweep``, which discard their C-ordered,
    exactly symmetric Gram after the call, pass ``_in_place=True``; LAPACK
    then writes the Cholesky factor over the Gram's lower triangle, and a
    retry restores it from the strict upper one and the diagonal.
    """
    import scipy.linalg  # loaded on first use: it costs the CLI's start-up ~0.25 s
    from scipy.linalg.blas import dgemm

    if not 0.0 <= reg_eps < np.inf:
        raise ValueError(f"reg_eps={reg_eps} must be a finite number >= 0")
    K = train_gram
    if not _in_place:
        K = np.array(np.asarray_chkfinite(train_gram, dtype=float), order="C")
        _mirror_lower(K)
    n = K.shape[0]
    diag = K.diagonal().copy()
    mean_diag = float(np.trace(K)) / n
    r = reg_eps * mean_diag / n
    Y = encode_labels(train_labels, num_classes)

    for jitter in _JITTER_LADDER if reg_eps > 0 else (0.0,):
        K.flat[:: n + 1] = diag + (r + jitter * mean_diag)
        try:
            # K^T is K's Fortran view: its upper triangle is K's lower one
            factor = scipy.linalg.cho_factor(K.T, overwrite_a=True)
            alpha = scipy.linalg.cho_solve(factor, Y, check_finite=False)
            break
        except np.linalg.LinAlgError as exc:
            failure = exc
            _mirror_lower(K.T)  # K's lower triangle again, from its strict upper one
    else:
        raise np.linalg.LinAlgError(
            f"kernel system singular: Cholesky at ridge {r:.3e} plus jitter "
            f"{jitter:.0e} x mean diagonal, the last tried, failed: {failure}"
        )
    if jitter > 0.0:
        log.warning("kernel system factorized with jitter %.0e x mean diagonal", jitter)
    predictions = np.argmax(dgemm(1.0, np.asarray(cross, dtype=float).T, alpha, trans_a=1),
                            axis=1)
    test_labels = np.asarray(test_labels, dtype=int)
    return float(np.mean(predictions == test_labels))


def _split(rng: np.random.Generator, n_total: int, n_train: int, n_test: int):
    """The first n_train and the next n_test of a permutation of n_total."""
    if min(n_train, n_test) < 1 or n_train + n_test > n_total:
        raise ValueError(f"not enough samples for the requested split: n_train "
                         f"{n_train}, n_test {n_test} (each >= 1) of {n_total}")
    idx = rng.permutation(n_total)
    return idx[:n_train], idx[n_train : n_train + n_test]


def depth_sweep(
    features: np.ndarray,
    labels,
    depths,
    params_deq: KernelParams,
    params_vanilla: KernelParams,
    reps: int,
    n_train: int,
    n_test: int,
    reg_eps: float = 1e-4,
    num_classes: int = 10,
    seed: int = 0,
) -> list[dict]:
    """Accuracy of the injected and vanilla finite-depth kernels over depths.

    Each rep draws a fresh train/test split from the seeded stream, fitted
    once per (kernel, depth); rows are dicts of kernel, depth, rep, accuracy.
    """
    labels = np.asarray(labels, dtype=int)
    rows = []
    rng = np.random.default_rng(seed)
    for rep in range(reps):
        tr, te = _split(rng, features.shape[0], n_train, n_test)
        train = features[tr]
        dots = np.vstack((_dot_matrix(train), _dot_matrix(features[te], train)))
        for tag, params in ((FINITE_DEPTH_NTK, params_deq), (VANILLA_NTK, params_vanilla)):
            for d in depths:
                values = kernel_from_dots(dots, tag, params, d)
                acc = regress_and_score(values[:n_train], values[n_train:], labels[tr],
                                        labels[te], reg_eps, num_classes, _in_place=True)
                rows.append(
                    {"kernel": tag, "depth": int(d), "rep": rep, "accuracy": acc}
                )
    return rows


def summarize_sweep(rows: list[dict]) -> list[dict]:
    """Mean accuracy and normal-approximation 95% CI per (kernel, depth)."""
    keys = sorted({(r["kernel"], r["depth"]) for r in rows})
    out = []
    for kernel_tag, depth in keys:
        accs = np.array(
            [r["accuracy"] for r in rows if (r["kernel"], r["depth"]) == (kernel_tag, depth)]
        )
        mean = float(accs.mean())
        half = 1.96 * float(accs.std(ddof=1)) / np.sqrt(accs.size) if accs.size > 1 else 0.0
        out.append(
            {
                "kernel": kernel_tag,
                "depth": depth,
                "mean_accuracy": mean,
                "ci_low": mean - half,
                "ci_high": mean + half,
            }
        )
    return out


def theta_vs_dot_sweep(params: KernelParams, depths) -> list[dict]:
    """Pre-readout kernel values at 41 evenly spaced dots in [-1, 1] per depth.

    At depth 0 the kernel equals the inner product itself; without input
    injection the values flatten across the grid as depth grows, with
    injection they stay strictly increasing in dot.
    """
    dots = np.linspace(-1.0, 1.0, 41)
    rows = []
    for d in depths:
        theta = finite_depth_theta(dots, d, params, include_output_layer=False)
        for x, t in zip(dots, np.atleast_1d(theta)):
            rows.append({"dot": float(x), "depth": int(d), "theta": float(t)})
    return rows


def write_rows_csv(rows: list[dict], path, columns) -> None:
    """CSV with a fixed column order; floats at 17 significant digits."""
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow(
                [
                    f"{row[c]:.17g}" if isinstance(row[c], float) else row[c]
                    for c in columns
                ]
            )
