"""Gram-matrix assembly, label encoding and regularized kernel regression.

Dense kernels (fixed-point and finite-depth, for either activation) depend
on a pair only through its inner product, so their Grams are vectorized over
the dataset's dot products.  A nonlinear dense Gram runs its exact solver
only at a few Chebyshev nodes in the angle arccos(x.y) over the range its
entries span, and evaluates that checked fit at every entry.  A self Gram of
any kernel solves its upper triangle once and mirrors it.  The convolutional
kernel is solved in one batched call over the image pairs of that triangle
(or of the test x train grid); each entry is a pure function of its two
images and equals ``cdeq_kernel_pair`` on that pair exactly.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from numpy.polynomial import chebyshev

from .conv import _cdeq_pairs
from .kernel import (
    _BLOCK, _as_correlation, _check_unit, finite_depth_theta, theta_deq_grid,
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
#: When no degree fits the entries' whole range of angles, the lower end
#: moves up in turn to the smallest angle from each of these fractions of the
#: largest one, and the entries below it run the exact solver.  Near the
#: cusp at dot = 1 the kernel is too sharp in the angle for the last degree
#: (vanilla kernel, depth 50-500), or the exact values too noisy.  With
#: angles up to 1.4, fits pass from a lowest angle of about 1/1400 of the
#: largest (injected kernel, and vanilla at depth 10), 1/140 (vanilla, depth
#: 50-100) and 1/14 (vanilla, depth 500); each fraction lies just above one.
_FIT_CUTS = (1 / 512, 1 / 64, 1 / 8)


@dataclass(frozen=True)
class GramMatrix:
    """Symmetric kernel matrix over one dataset."""

    values: np.ndarray


def _dot_matrix(rows: np.ndarray, cols: np.ndarray | None = None) -> np.ndarray:
    """Inner products of the unit-norm ``rows`` with ``cols``, clipped to
    [-1, 1]; without ``cols``, the self Gram of ``rows``."""
    for x in (rows,) if cols is None else (rows, cols):
        _check_unit(x, "dense kernels require unit-normalized samples")
    dots = rows @ (rows if cols is None else cols).T
    np.clip(dots, -1.0, 1.0, out=dots)
    if cols is None:
        # The self inner product is 1 by definition, and at the kernel's
        # square-root cusp there the BLAS product's rounding must not leak.
        np.fill_diagonal(dots, 1.0)
    return dots


def kernel_from_dots(
    dots: np.ndarray,
    kernel_tag: str,
    params: KernelParams,
    depth: int | None = None,
) -> np.ndarray:
    """Kernel values for a matrix of pairwise inner products (dense tags)."""
    if kernel_tag == DEQ_NTK:
        if params.activation == LINEAR:
            # affine in x.y, so Newton starts at the root; crosses 0, so no relative fit bound
            return theta_deq_grid(dots, params)
        return _fitted_gram(dots, lambda x: theta_deq_grid(x, params),
                            kernel_tag, "the exact Newton solve")
    if kernel_tag in (FINITE_DEPTH_NTK, VANILLA_NTK):
        if depth is None:
            raise ValueError(f"{kernel_tag} requires a depth")
        if kernel_tag == VANILLA_NTK and params.sigma_u_sq != 0.0:
            raise ValueError("vanilla kernel expects sigma_u_sq = 0")
        return _fitted_gram(dots, lambda x: finite_depth_theta(x, depth, params),
                            f"{kernel_tag} depth {depth}", "the exact recursion")
    raise ValueError(f"unknown dense kernel tag {kernel_tag!r}")


def _fitted_gram(dots, exact, label, exact_name):
    """Kernel values from a Chebyshev fit in phi = arccos(dot) to ``exact``,
    the kernel's solver over an array of dots.

    The kernel is smooth in phi, so it is interpolated on [phi_min, phi_max]
    of the entries with dot < 1.  Entries with dot = 1 take the exact value
    at 1, solved with the fit's nodes.  When no degree fits that range, the
    lower end moves up (see ``_FIT_CUTS``) and the entries below it run
    ``exact``.  Ranges of one angle, and ranges no lower end fits, run it on
    every entry.  ``label`` and ``exact_name`` name the kernel and its
    solver in the log.
    """
    dots = np.asarray(dots, dtype=float)
    flat = dots.reshape(-1)
    out = np.empty(flat.shape)
    lo, hi = np.pi, 0.0
    for a in range(0, flat.size, _BLOCK):
        phi = out[a : a + _BLOCK]
        np.arccos(_as_correlation(flat[a : a + _BLOCK]), out=phi)
        lo = min(lo, phi.min(where=phi > 0.0, initial=np.pi))
        hi = max(hi, phi.max())
    if not hi > lo:
        return exact(dots)
    cut = lo
    coef, at_one, err = _angle_fit(exact, cut, hi)
    if err > FIT_TOL:
        # the smallest angle from each fraction of phi_max on
        cuts = {out.min(where=out >= f * hi, initial=hi) for f in _FIT_CUTS}
        for cut in sorted(c for c in cuts if lo < c < hi):
            coef, at_one, err = _angle_fit(exact, cut, hi)
            if err <= FIT_TOL:
                break
    if err > FIT_TOL:
        log.warning("%s: Chebyshev fit on angles [%.6g, %.6g] reached %.2e "
                    "relative at degree %d from lower end %.6g, above %.0e; running %s",
                    label, lo, hi, err, coef.size - 1, cut, FIT_TOL, exact_name)
        return exact(dots)
    near = np.flatnonzero((out > 0.0) & (out < cut)) if cut > lo else []
    mid, half = 0.5 * (hi + cut), 0.5 * (hi - cut)
    for a in range(0, flat.size, _BLOCK):
        phi = out[a : a + _BLOCK]
        phi -= mid
        phi /= half
        phi[:] = chebyshev.chebval(phi, coef)
        np.copyto(phi, at_one, where=flat[a : a + _BLOCK] >= 1.0)
    if len(near):
        out[near] = exact(flat[near])
        log.info("%s: Chebyshev fit on angles [%.6g, %.6g]; %d entries below it ran %s",
                 label, cut, hi, len(near), exact_name)
    return out.reshape(dots.shape)


def _angle_fit(exact, lo, hi):
    """Chebyshev coefficients of ``exact`` in u = (phi - mid) / half on [lo,
    hi] = [mid - half, mid + half], the exact value at dot = 1 and the fit's
    relative error at its check points, for the first degree in
    ``_FIT_DEGREES`` whose error is within ``FIT_TOL`` (else the last).

    A degree-n fit interpolates at the n + 1 Chebyshev points of the first
    kind and is checked at the n + 2 points interleaved with them, the
    interval's ends included; one exact call gives both.
    """
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    for n in _FIT_DEGREES:
        u = np.cos(np.pi * np.arange(2 * n + 3) / (2 * n + 2))
        values = exact(np.append(np.cos(mid + half * u), 1.0))
        at_one, values = values[-1], values[:-1]
        coef = chebyshev.chebfit(u[1::2], values[1::2], n)
        miss = np.max(np.abs(chebyshev.chebval(u[::2], coef) - values[::2]))
        err = miss / max(np.max(np.abs(values)), np.finfo(float).tiny)
        if err <= FIT_TOL:
            break
    return coef, at_one, err


def assemble_gram(
    features: np.ndarray,
    kernel_tag: str,
    params: KernelParams,
    depth: int | None = None,
    filter_size: int = 3,
) -> GramMatrix:
    """Kernel matrix over ``features``: N x m unit-norm rows for the dense
    tags, N x P x Q x C unit-pixel images for the convolutional one.

    Every tag solves the upper triangle, diagonal included, in one call over
    its pairs in row-major order and mirrors it, so the matrix is exactly
    symmetric.  A boolean mask picks the triangle at 1 byte per entry, where
    ``triu_indices`` would take 16.
    """
    n = features.shape[0]
    upper = np.triu(np.ones((n, n), dtype=bool))
    if kernel_tag == CDEQ_NTK:
        tri = _cdeq_pairs(features, features, *np.nonzero(upper), filter_size, params)
    else:
        tri = kernel_from_dots(_dot_matrix(features)[upper], kernel_tag, params, depth)
    values = np.empty((n, n))
    values[upper] = values.T[upper] = tri
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
    return kernel_from_dots(dots, kernel_tag, params, depth)


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
) -> float:
    """Kernel ridge regression accuracy.

    Solves (K + rI) alpha = Y with r = reg_eps * (tr K / N) / N and scores
    argmax predictions (ties to the lowest class index).  With reg_eps = 0
    no regularization or jitter is applied and a singular system is an
    error; with reg_eps > 0 a relative jitter ladder handles marginal
    factorizations, and a step above 0 is logged as a warning.
    """
    if reg_eps < 0:
        raise ValueError("reg_eps must be nonnegative")
    K = np.asarray(train_gram, dtype=float)
    n = K.shape[0]
    mean_diag = float(np.trace(K)) / n
    r = reg_eps * mean_diag / n
    Y = encode_labels(train_labels, num_classes)

    def shifted(c):
        """A fresh K + cI in Fortran order, which LAPACK factors in place."""
        M = np.array(K, order="F")
        M.flat[:: n + 1] += c
        return M

    for jitter in _JITTER_LADDER if reg_eps > 0 else (0.0,):
        try:
            factor = scipy.linalg.cho_factor(shifted(r + jitter * mean_diag),
                                             overwrite_a=True)
            alpha = scipy.linalg.cho_solve(factor, Y)
            break
        except scipy.linalg.LinAlgError:
            continue
    else:
        cond = np.linalg.cond(shifted(r))
        raise np.linalg.LinAlgError(
            f"kernel system singular even after jitter ladder "
            f"(condition estimate {cond:.3e})"
        )
    if jitter > 0.0:
        log.warning("kernel system factorized with jitter %.0e x mean diagonal", jitter)
    predictions = np.argmax(np.asarray(cross) @ alpha, axis=1)
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

    Each rep draws a fresh train/test split from the seeded stream; rows are
    dicts with keys kernel, depth, rep, accuracy.
    """
    labels = np.asarray(labels, dtype=int)
    rows = []
    rng = np.random.default_rng(seed)
    for rep in range(reps):
        tr, te = _split(rng, features.shape[0], n_train, n_test)
        dots_tr = _dot_matrix(features[tr])
        dots_te = _dot_matrix(features[te], features[tr])
        for tag, params in ((FINITE_DEPTH_NTK, params_deq), (VANILLA_NTK, params_vanilla)):
            for d in depths:
                K = kernel_from_dots(dots_tr, tag, params, d)
                C = kernel_from_dots(dots_te, tag, params, d)
                acc = regress_and_score(
                    K, C, labels[tr], labels[te], reg_eps, num_classes
                )
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


def theta_vs_dot_sweep(
    params: KernelParams, depths, num_points: int = 41
) -> list[dict]:
    """Pre-readout kernel values on a dot grid in [-1, 1] for each depth.

    At depth 0 the kernel equals the inner product itself; without input
    injection the values flatten across the grid as depth grows, with
    injection they stay strictly increasing in dot.
    """
    dots = np.linspace(-1.0, 1.0, num_points)
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
