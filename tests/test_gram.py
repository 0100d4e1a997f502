import functools
import logging
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq

from deqntk import (
    LINEAR,
    NORMALIZED_RELU,
    ConvergenceError,
    DomainError,
    KernelParams,
    finite_depth_theta,
    theta_deq,
    theta_deq_grid,
    theta_linear_deq,
)
from deqntk import conv, gram
from deqntk.conv import cdeq_kernel_pair
from deqntk.gram import (
    CDEQ_NTK,
    DEQ_NTK,
    FINITE_DEPTH_NTK,
    FIT_TOL,
    VANILLA_NTK,
    assemble_gram,
    cross_gram,
    depth_sweep,
    encode_labels,
    kernel_from_dots,
    regress_and_score,
    summarize_sweep,
    theta_vs_dot_sweep,
    write_rows_csv,
)
from deqntk.kernel import BOUNDARY_SLACK
from mp_oracles import mp_deq, mp_finite_depth

P = KernelParams(sigma_w_sq=0.5, sigma_u_sq=0.5)


def theta_oracle(dot, p):
    """Depth-limit ReLU kernel of one pair by bracketing root-finding on the
    covariance map, with the dual activations written out."""
    a = (p.sigma_u_sq + p.sigma_b_sq) / (1.0 - p.sigma_w_sq)

    def k0(r):
        return (math.pi - math.acos(max(-1.0, min(1.0, r)))) / math.pi

    def k1(r):
        r = max(-1.0, min(1.0, r))
        return (math.sqrt(1.0 - r * r) + k0(r) * math.pi * r) / math.pi

    inject = p.sigma_u_sq * dot + p.sigma_b_sq
    s = brentq(lambda s: p.sigma_w_sq * a * k1(s / a) + inject - s, -a, a,
               xtol=1e-15)
    sigma_dot = p.sigma_w_sq * k0(s / a)
    return p.sigma_v_sq * (k0(s / a) * s / (1.0 - sigma_dot) + a * k1(s / a))


def unit_rows(n, m, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, m))
    return X / np.linalg.norm(X, axis=1, keepdims=True)


def unit_images(n, P_, Q, C, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, P_, Q, C))
    return X / np.linalg.norm(X, axis=-1, keepdims=True)


class TestAssembly:
    def test_single_sample(self):
        X = unit_rows(1, 12)
        G = assemble_gram(X, DEQ_NTK, P)
        assert G.values.shape == (1, 1)
        assert abs(G.values[0, 0] - theta_deq(1.0, P).theta) <= 1e-12

    def test_duplicate_rows_duplicate_gram_rows(self):
        X = unit_rows(4, 12)
        X[1] = X[0]
        G = assemble_gram(X, DEQ_NTK, P).values
        assert np.array_equal(G[0], G[1])

    def test_matches_scalar_loop_oracle(self):
        X = unit_rows(10, 20, seed=1)
        G = assemble_gram(X, DEQ_NTK, P).values
        for i in range(10):
            for j in range(10):
                d = 1.0 if i == j else float(np.clip(X[i] @ X[j], -1, 1))
                assert abs(G[i, j] - theta_oracle(d, P)) <= 1e-8

    def test_symmetry_and_constant_diagonal(self):
        # A dense self Gram evaluates every entry of its dot matrix; at
        # n = 300 its 90,000 entries span three 32 Ki blocks.  The
        # convolutional Gram solves its upper triangle and mirrors it.
        cases = [
            (DEQ_NTK, P, None),
            (DEQ_NTK, KernelParams(0.3, 0.2, sigma_b_sq=0.5, activation=LINEAR), None),
            (FINITE_DEPTH_NTK, KernelParams(0.6, 0.4), 50),
            (VANILLA_NTK, KernelParams(1.0, 0.0), 10),
        ]
        for n in (20, 300):
            X = unit_rows(n, 30, seed=2)
            dots = gram._dot_matrix(X)
            for tag, p, depth in cases:
                G = assemble_gram(X, tag, p, depth).values
                assert np.array_equal(G, G.T), (n, tag, p)
                assert np.ptp(np.diag(G)) <= 1e-12
                full = kernel_from_dots(dots, tag, p, depth)
                assert np.all(np.abs(G - full) <= 1e-12 * np.abs(full)), (n, tag, p)
        imgs = unit_images(6, 5, 4, 2, seed=2)
        G = assemble_gram(imgs, CDEQ_NTK, P, filter_size=3).values
        assert np.array_equal(G, G.T)
        assert np.ptp(np.diag(G)) <= 1e-12

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_psd(self, seed):
        X = unit_rows(40, 25, seed=seed)
        w = np.linalg.eigvalsh(assemble_gram(X, DEQ_NTK, P).values)
        assert w[0] >= -1e-8 * w[-1]

    def test_requires_unit_rows(self):
        rng = np.random.default_rng(0)
        with pytest.raises(DomainError):
            assemble_gram(rng.standard_normal((4, 8)), DEQ_NTK, P)

    def test_depth_required_for_finite_kernels(self):
        X = unit_rows(3, 8)
        with pytest.raises(ValueError):
            assemble_gram(X, FINITE_DEPTH_NTK, P)

    def test_vanilla_requires_no_injection(self):
        X = unit_rows(3, 8)
        with pytest.raises(ValueError):
            assemble_gram(X, VANILLA_NTK, P, depth=5)

    def test_linear_tag(self):
        p_lin = KernelParams(
            sigma_w_sq=0.125, sigma_u_sq=0.875, activation="linear"
        )
        X = unit_rows(5, 8, seed=3)
        G = assemble_gram(X, DEQ_NTK, p_lin).values
        # linear kernel is an affine image of the dot matrix
        dots = np.clip(X @ X.T, -1, 1)
        np.fill_diagonal(dots, 1.0)
        ratio = G / dots
        assert np.ptp(ratio) <= 1e-9

    @pytest.mark.parametrize("sw2, su2, sb2", [(0.125, 0.875, 0.0), (0.3, 0.2, 0.5),
                                                (0.9, 0.05, 0.05)])
    def test_linear_gram_is_the_closed_form(self, sw2, su2, sb2):
        p_lin = KernelParams(sigma_w_sq=sw2, sigma_u_sq=su2, sigma_b_sq=sb2,
                             sigma_v_sq=1.5, activation=LINEAR)
        X = unit_rows(40, 6, seed=5)
        G = assemble_gram(X, DEQ_NTK, p_lin).values
        closed = theta_linear_deq(gram._dot_matrix(X), p_lin)
        assert np.array_equal(G, closed)

    @pytest.mark.parametrize("activation", [NORMALIZED_RELU, LINEAR])
    def test_dots_past_one_rejected(self, activation):
        # every activation of the fixed-point tag checks its dots
        p = KernelParams(sigma_w_sq=0.5, sigma_u_sq=0.5, activation=activation)
        for bad in (1.0 + 1e-9, -1.0 - 1e-9):
            dots = np.array([[1.0, 0.5], [0.5, bad]])
            with pytest.raises(DomainError):
                kernel_from_dots(dots, DEQ_NTK, p)

    def test_cdeq_entries_equal_pair_values(self):
        imgs = unit_images(4, 5, 4, 2, seed=4)
        G = assemble_gram(imgs, CDEQ_NTK, P, filter_size=3).values
        for i in range(4):
            for j in range(4):
                assert G[i, j] == cdeq_kernel_pair(imgs[i], imgs[j], 3, P)
                # the same images in other memory layouts
                strided = np.zeros((5, 8, 2))
                strided[:, ::2] = imgs[j]
                x, y = np.asfortranarray(imgs[i]), strided[:, ::2]
                assert G[i, j] == cdeq_kernel_pair(x, y, 3, P)

    def test_cdeq_cross_gram_of_self_equals_gram(self):
        imgs = unit_images(4, 5, 4, 2, seed=5)
        G = assemble_gram(imgs, CDEQ_NTK, P, filter_size=3).values
        assert np.array_equal(cross_gram(imgs, imgs, CDEQ_NTK, P, filter_size=3), G)

    def test_cdeq_budget_names_stage_and_pair(self, monkeypatch):
        # a linear map at sigma_w_sq = 0.99 contracts too slowly for a 30-step
        # budget; self pairs take their closed form
        monkeypatch.setattr(gram, "_cdeq_pairs", functools.partial(conv._cdeq_pairs, max_iter=30))
        p = KernelParams(sigma_w_sq=0.99, sigma_u_sq=0.01, activation="linear")
        imgs = unit_images(3, 4, 4, 2, seed=6)
        with pytest.raises(ConvergenceError) as info:
            assemble_gram(imgs, CDEQ_NTK, p, filter_size=3)
        msg = str(info.value)
        assert msg.startswith("covariance fixed point: 3 of 6 image pairs")
        assert "after 30 iterations" in msg and "first is images (0, 1)" in msg


class TestKernelFromDots:
    """``kernel_from_dots`` returns a new array and never writes its
    argument, which callers read again; dots within ``BOUNDARY_SLACK``
    outside [-1, 1] give the values at +-1 exactly."""

    @pytest.mark.parametrize("tag, p, depth", [
        (DEQ_NTK, P, None),
        (DEQ_NTK, KernelParams(0.3, 0.2, sigma_b_sq=0.5, activation=LINEAR), None),
        (FINITE_DEPTH_NTK, KernelParams(0.6, 0.4), 50),
        (VANILLA_NTK, KernelParams(1.0, 0.0), 10),
        (DEQ_NTK, KernelParams(0.999, 0.001), None),
    ], ids=["deq", "linear-deq", "finite-depth", "vanilla", "deq-fit-fallback"])
    def test_argument_unchanged_and_slack_clamped(self, tag, p, depth, caplog):
        # The duplicated sample, one ulp below 1, keeps the last case's fit
        # from passing, so it runs the exact solver on every entry.
        dots = data_dots()
        dots[0, 1] = dots[1, 0] = 1.0 - 2.0**-52
        dots[2, 3] = dots[3, 2] = -1.0
        outside = np.where(np.abs(dots) == 1.0, np.sign(dots) * (1.0 + BOUNDARY_SLACK), dots)
        assert np.count_nonzero(outside > 1.0) == 50 and np.count_nonzero(outside < -1.0) == 2
        want = kernel_from_dots(dots, tag, p, depth)
        for arg in (outside, np.asfortranarray(outside), dots):
            before = arg.tobytes(order="A")
            with caplog.at_level(logging.WARNING, logger="deqntk"):
                got = kernel_from_dots(arg, tag, p, depth)
            assert arg.tobytes(order="A") == before
            assert not np.shares_memory(got, arg)
            assert np.array_equal(got, want)
        fell_back = any("on every entry" in r.getMessage() for r in caplog.records)
        assert fell_back == (p.sigma_w_sq == 0.999)


def with_nan(a):
    a = a.copy()
    a.flat[a.size // 2] = np.nan
    return a


class TestNonFinite:
    """A NaN input raises DomainError at every entry point, and a
    non-finite variance is rejected when the parameters are built."""

    @pytest.mark.parametrize("call", [
        lambda: theta_deq(np.nan, P),
        lambda: theta_deq_grid(with_nan(np.linspace(-0.5, 0.5, 5)), P),
        lambda: finite_depth_theta(with_nan(np.linspace(-0.5, 0.5, 5)), 10, P),
        lambda: assemble_gram(with_nan(unit_rows(4, 8)), DEQ_NTK, P),
        lambda: assemble_gram(with_nan(unit_images(3, 4, 4, 2)), CDEQ_NTK, P),
    ], ids=["scalar", "grid", "finite-depth", "dense-gram", "conv-gram"])
    def test_nan_input_rejected(self, call):
        with pytest.raises(DomainError):
            call()

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("name", ["sigma_w_sq", "sigma_u_sq", "sigma_b_sq",
                                      "sigma_v_sq"])
    def test_non_finite_parameter_rejected(self, name, value):
        with pytest.raises(ValueError, match=name):
            KernelParams(**{"sigma_w_sq": 0.5, "sigma_u_sq": 0.5, name: value})


class TestLabels:
    def test_encoding_pattern(self):
        Y = encode_labels([3], 10)
        assert Y[0, 3] == 0.9
        assert np.sum(Y[0] == -0.1) == 9

    def test_single_class(self):
        Y = encode_labels([0, 0], 1)
        assert np.array_equal(Y, np.full((2, 1), 0.9))

    @given(st.lists(st.integers(0, 9), min_size=1, max_size=30))
    def test_round_trip_argmax(self, labels):
        Y = encode_labels(labels, 10)
        assert np.array_equal(np.argmax(Y, axis=1), np.array(labels))
        assert np.allclose(Y.sum(axis=1), 0.9 - 0.1 * 9)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            encode_labels([10], 10)
        with pytest.raises(ValueError):
            encode_labels([-1], 10)


class TestRegression:
    def test_identity_gram_recovers_labels(self):
        labels = np.arange(10) % 10
        acc = regress_and_score(np.eye(10), np.eye(10), labels, labels, 0.0)
        assert acc == 1.0

    def test_frozen_kernel_unregularized_is_singular(self):
        K = np.ones((10, 10))
        labels = np.arange(10) % 10
        with pytest.raises(np.linalg.LinAlgError,
                           match="2-th leading minor"):
            regress_and_score(K, K, labels, labels, 0.0)

    def test_frozen_kernel_regularized_is_chance(self):
        K = np.ones((20, 20))
        labels = np.arange(20) % 10
        acc = regress_and_score(K, K, labels, labels, 1e-2)
        assert abs(acc - 0.1) <= 0.05

    def test_scaling_invariance(self):
        X = unit_rows(30, 15, seed=5)
        labels = np.arange(30) % 10
        G = assemble_gram(X, DEQ_NTK, P).values
        base = regress_and_score(G, G, labels, labels, 1e-3)
        scaled = regress_and_score(37.0 * G, 37.0 * G, labels, labels, 1e-3)
        assert base == scaled

    def test_permutation_equivariance(self):
        X = unit_rows(25, 15, seed=6)
        labels = np.arange(25) % 10
        G = assemble_gram(X, DEQ_NTK, P).values
        perm = np.random.default_rng(0).permutation(25)
        Gp = assemble_gram(X[perm], DEQ_NTK, P).values
        assert np.max(np.abs(Gp - G[np.ix_(perm, perm)])) <= 1e-12
        a = regress_and_score(G, G, labels, labels, 1e-4)
        b = regress_and_score(Gp, Gp, labels[perm], labels[perm], 1e-4)
        assert a == b

    def test_reads_the_lower_triangle(self, monkeypatch):
        # alpha is bit-identical to a factorization of a Fortran-ordered copy
        # of K, and finite junk above the diagonal changes nothing
        X = unit_rows(40, 15, seed=7)
        labels = np.arange(40) % 10
        K = assemble_gram(X, DEQ_NTK, P).values
        assert np.array_equal(K, K.T)
        alphas, cho_solve = [], scipy.linalg.cho_solve
        monkeypatch.setattr(scipy.linalg, "cho_solve",
                            lambda *args, **kw: alphas.append(cho_solve(*args, **kw)) or alphas[-1])
        acc = regress_and_score(K, K, labels, labels, 1e-4)
        junk = K.copy()
        junk[np.triu_indices(40, 1)] = np.random.default_rng(0).uniform(-1e3, 1e3, 780)
        assert regress_and_score(junk, K, labels, labels, 1e-4) == acc
        M = np.array(K, order="F")
        M.flat[::41] += 1e-4 * np.trace(K) / 40 / 40
        alpha = cho_solve(scipy.linalg.cho_factor(M), encode_labels(labels, 10))
        assert len(alphas) == 2
        assert all(np.array_equal(a, alpha) for a in alphas)

    def test_negative_reg_rejected(self):
        # the rule of the CLI's --reg-eps: a finite number >= 0
        for reg_eps in (-1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="reg_eps"):
                regress_and_score(np.eye(3), np.eye(3), [0, 1, 2], [0, 1, 2], reg_eps)

    def test_jitter_step_is_logged(self, caplog):
        # The ridge 1e-30 leaves the all-ones Gram singular; the ladder's
        # first nonzero step factorizes it.
        K = np.ones((10, 10))
        labels = np.arange(10) % 10
        with caplog.at_level(logging.WARNING, logger="deqntk"):
            regress_and_score(np.eye(10), np.eye(10), labels, labels, 1e-30)
            assert not caplog.records
            regress_and_score(K, K, labels, labels, 1e-30)
        [record] = caplog.records
        assert record.levelno == logging.WARNING
        assert record.name == "deqntk.gram"
        assert "jitter 1e-10" in record.getMessage()
        # The accepted step is one factorization of K + (r + jitter * mean
        # diagonal) I; two all-ones blocks leave zero pivots at jitter 0.
        K = np.kron(np.eye(2), np.ones((5, 5)))
        rng = np.random.default_rng(0)
        cross, test_labels = rng.standard_normal((40, 10)), rng.integers(0, 10, 40)
        acc = regress_and_score(K, cross, labels, test_labels, 1e-30)
        mean_diag = 1.0
        r = 1e-30 * mean_diag / 10
        M = K + (r + 1e-10 * mean_diag) * np.eye(10)
        alpha = scipy.linalg.cho_solve(scipy.linalg.cho_factor(M), encode_labels(labels, 10))
        assert acc == np.mean(np.argmax(cross @ alpha, axis=1) == test_labels)


def traced_peak(f, *args):
    """Peak traced allocation of ``f(*args)`` in bytes."""
    tracemalloc.start()
    try:
        f(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemory:
    """Peaks at n = 1000 in units of one n x n float64 array, 8 n^2 bytes.
    The self Gram holds one n x n buffer, its dot matrix, which the kernel's
    values overwrite block by block; the cross Gram holds its n/2 x n dot
    matrix the same way; the regression holds one shifted copy of K, which
    LAPACK factors in place."""

    n = 1000

    def test_self_gram_peak(self):
        X = unit_rows(self.n, 50, seed=1)
        peak = traced_peak(assemble_gram, X, DEQ_NTK, P)
        assert peak <= 1.25 * 8 * self.n**2

    def test_cross_gram_peak(self):
        X = unit_rows(self.n, 50, seed=1)
        peak = traced_peak(cross_gram, X[: self.n // 2], X, DEQ_NTK, P)
        assert peak <= 0.75 * 8 * self.n**2

    def test_regression_peak(self):
        X = unit_rows(self.n, 50, seed=1)
        G = assemble_gram(X, DEQ_NTK, P).values
        cross = G[:100].copy()
        labels = np.arange(self.n) % 10
        peak = traced_peak(regress_and_score, G, cross, labels, labels[:100], 1e-4)
        assert peak <= 1.6 * 8 * self.n**2


def data_dots(n=50, m=200, seed=0):
    """Self dot matrix of nonnegative pixel-like rows: angles well inside
    (0, pi/2), diagonal exactly 1."""
    rng = np.random.default_rng(seed)
    X = 0.4 + 0.6 * rng.random((n, m)) ** 4
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    dots = np.clip(X @ X.T, -1.0, 1.0)
    np.fill_diagonal(dots, 1.0)
    return dots


def wide_dots(n=2000, seed=0):
    """Dots over all of [-1, 1), -1 itself included."""
    dots = np.random.default_rng(seed).uniform(-1.0, 1.0, n)
    dots[0] = -1.0
    return dots


FIT_CASES = {
    FINITE_DEPTH_NTK: [
        KernelParams(0.6, 0.4),
        KernelParams(0.6, 0.4, activation=LINEAR),
        KernelParams(0.5, 0.3, sigma_b_sq=0.4),
        KernelParams(0.0, 0.7),
    ],
    VANILLA_NTK: [
        KernelParams(1.0, 0.0),
        KernelParams(1.0, 0.0, activation=LINEAR),
        KernelParams(0.8, 0.0, sigma_b_sq=0.5),
        KernelParams(0.0, 0.0),  # the diagonal vanishes: a zero kernel
    ],
    DEQ_NTK: [
        KernelParams(0.9, 0.1),
        KernelParams(0.1, 0.9),
        KernelParams(0.5, 0.5),
        KernelParams(0.5, 0.3, sigma_b_sq=0.4),
        KernelParams(0.3, 0.2, sigma_b_sq=0.5),
        KernelParams(0.9, 0.1, sigma_b_sq=0.2),
    ],
}


def fitted_tags(depths):
    """(tag, depth) of each finite-depth tag at ``depths``, then the fixed
    point, which has no depth."""
    return [(tag, d) for tag in (FINITE_DEPTH_NTK, VANILLA_NTK) for d in depths] + [
        pytest.param(DEQ_NTK, None, id="deq-ntk")
    ]


def exact_solver(tag):
    """Name in ``gram`` of the exact solver the fit of ``tag`` samples."""
    return "theta_deq_grid" if tag == DEQ_NTK else "finite_depth_theta"


def exact_values(dots, tag, p, depth):
    """The exact solver of ``tag`` on every entry."""
    if tag == DEQ_NTK:
        return theta_deq_grid(dots, p)
    return finite_depth_theta(dots, depth, p)


def count_exact_entries(monkeypatch, name="finite_depth_theta"):
    """Record the size of every call of ``gram.<name>``."""
    sizes = []
    exact = getattr(gram, name)

    def counted(dot, *args, **kwargs):
        sizes.append(np.size(dot))
        return exact(dot, *args, **kwargs)

    monkeypatch.setattr(gram, name, counted)
    return sizes


class TestFiniteDepthFit:
    """The checked angle fit of every nonlinear dense kernel: the
    finite-depth tags and the fixed point (``DEQ_NTK``)."""

    @pytest.mark.parametrize("tag, depth", fitted_tags((0, 1, 10, 50, 500)))
    def test_matches_exact_within_tolerance(self, tag, depth, monkeypatch):
        for p in FIT_CASES[tag]:
            for dots, fitted in ((data_dots(), True), (wide_dots(), tag == DEQ_NTK)):
                sizes = count_exact_entries(monkeypatch, exact_solver(tag))
                got = kernel_from_dots(dots, tag, p, depth)
                monkeypatch.undo()
                want = exact_values(dots, tag, p, depth)
                assert got.shape == dots.shape
                assert np.max(np.abs(got - want)) <= FIT_TOL * np.max(np.abs(want)), p
                if fitted:
                    # the solver saw the fit's points, not the entries
                    assert max(sizes) < dots.size / 10, (p, depth, sizes)

    @pytest.mark.parametrize("tag, depth", fitted_tags((1, 50)))
    def test_exact_where_dot_is_one(self, tag, depth, monkeypatch):
        # The fit takes the value at 1 from its node batch, with no call of
        # its own; the fit's whole-array fallback and the exact solver on
        # the whole dot matrix give the same value.
        dots = data_dots()
        for p in FIT_CASES[tag]:
            sizes = count_exact_entries(monkeypatch, exact_solver(tag))
            got = kernel_from_dots(dots, tag, p, depth)
            monkeypatch.undo()
            assert max(sizes) < dots.size and 1 not in sizes, sizes
            monkeypatch.setattr(gram, "FIT_TOL", 1e-30)
            fallback = kernel_from_dots(dots, tag, p, depth)
            monkeypatch.undo()
            one = theta_deq(1.0, p).theta if tag == DEQ_NTK else finite_depth_theta(1.0, depth, p)
            for values in (got, fallback, exact_values(dots, tag, p, depth)):
                assert np.all(np.diag(values) == one), p

    @pytest.mark.parametrize("tag, depth", fitted_tags((10, 50, 500)))
    def test_near_duplicates_alone_run_exact(self, tag, depth, monkeypatch, caplog):
        # A duplicated sample comes out of BLAS one ulp below 1.  Such
        # entries stay inside the one fit: the exact solver sees only the
        # fit's nodes, nothing is logged, and the near entries are within the
        # fit's tolerance of the high-precision kernel.
        dots = data_dots(n=100)
        near = ((0, 2), (1, 3))
        dots[near] = dots[near[::-1]] = 1.0 - 2.0**-52, np.cos(1e-5)
        for p in FIT_CASES[tag]:
            if p.activation == LINEAR:
                continue
            sizes = count_exact_entries(monkeypatch, exact_solver(tag))
            with caplog.at_level(logging.INFO, logger="deqntk"):
                got = kernel_from_dots(dots, tag, p, depth)
            monkeypatch.undo()
            assert max(sizes) < dots.size / 10 and not caplog.records, (p, sizes)
            want = exact_values(dots, tag, p, depth)
            bound = FIT_TOL * np.max(np.abs(want))
            assert np.max(np.abs(got - want)) <= bound, p
            for x, value in zip(dots[near], got[near]):
                if bound > 0.0:  # else the zero kernel, which has no oracle
                    truth = mp_deq(x, p) if tag == DEQ_NTK else mp_finite_depth(x, depth, p)
                    assert abs(value - truth) <= bound, (p, x)

    def test_deq_near_contraction_limit_against_mpmath(self):
        # At sw2 = 0.999 the fit is judged where it differs most from the
        # exact solver, against the 60-digit fixed point.
        p = KernelParams(0.999, 0.001)
        for dots in (data_dots(), wide_dots()):
            got = kernel_from_dots(dots, DEQ_NTK, p)
            gap = np.abs(got - theta_deq_grid(dots, p)).reshape(-1)
            for i in np.argsort(gap)[-5:]:
                want = mp_deq(dots.flat[i], p)
                assert abs(got.flat[i] - want) <= 1e-12 * abs(want), (dots.flat[i], gap[i])

    def test_degree_doubles_until_the_check_passes(self, monkeypatch, caplog):
        # Over angles [0.045, pi] the vanilla kernel at depth 50 needs degree
        # 64; each try runs the recursion on n + 1 nodes, n + 2 check points
        # and dot = 1.
        p = KernelParams(1.0, 0.0)
        dots = wide_dots()
        sizes = count_exact_entries(monkeypatch)
        with caplog.at_level(logging.WARNING, logger="deqntk"):
            got = kernel_from_dots(dots, VANILLA_NTK, p, 50)
        assert sizes == [36, 68, 132] and not caplog.records
        want = finite_depth_theta(dots, 50, p)
        assert np.max(np.abs(got - want)) <= FIT_TOL * np.max(want)

    def test_fallback_is_logged_and_exact(self, caplog):
        # Without bias at sw2 = 0.999 the kernel has a pole at phi ~ -pi (1 -
        # sw2) / sw2, just outside the angles of a Gram with a duplicated
        # sample: no degree up to the cap meets FIT_TOL down to the cusp.
        p = KernelParams(0.999, 0.001)
        dots = data_dots()
        dots[0, 1] = dots[1, 0] = 1.0 - 2.0**-52
        with caplog.at_level(logging.WARNING, logger="deqntk"):
            got = kernel_from_dots(dots, DEQ_NTK, p)
        assert np.array_equal(got, theta_deq_grid(dots, p))
        [record] = caplog.records
        message = record.getMessage()
        assert record.name == "deqntk.gram"
        assert message.startswith("deq-ntk: Chebyshev fit on angles [2.10734e-08, ")
        assert "at degree 128, above 2e-11" in message
        assert message.endswith("running the exact Newton solve on every entry")

    @staticmethod
    def record_lengths(monkeypatch):
        """Record len(coef) of every Chebyshev evaluation: the fit's checks,
        then its blocks of entries."""
        lengths = []
        chebval = gram.chebyshev.chebval

        def counted(x, coef, *args, **kwargs):
            lengths.append(len(coef))
            return chebval(x, coef, *args, **kwargs)

        monkeypatch.setattr(gram.chebyshev, "chebval", counted)
        return lengths

    def test_chop_keeps_the_constant_term(self):
        assert gram._chop(np.array([2.0, 1e-3, 1e-17, -1e-17]), 5e-17).tolist() == [2.0, 1e-3]
        assert gram._chop(np.array([2.0, 1e-3, 1e-17]), 0.0).size == 3
        assert gram._chop(np.zeros(17), 0.0).tolist() == [0.0]
        assert gram._chop(np.array([2.0, 1e-20]), 1.0).tolist() == [2.0]

    @pytest.mark.parametrize("depth", [1, 10, 500])
    def test_flat_kernels_keep_the_constant_term(self, depth, monkeypatch):
        # Over any range the zero kernel's series is all zeros, and a
        # constant kernel's is its constant plus rounding: the chop may take
        # every term but c_0, and must leave c_0.
        zero, constant = KernelParams(0.0, 0.0), KernelParams(0.0, 0.0, sigma_b_sq=0.5)
        for dots in (data_dots(), wide_dots()):
            for p in (zero, constant):
                lengths = self.record_lengths(monkeypatch)
                got = kernel_from_dots(dots, VANILLA_NTK, p, depth)
                monkeypatch.undo()
                assert lengths[0] == 17 and 1 <= lengths[-1] < 17, (p, lengths)
                want = exact_values(dots, VANILLA_NTK, p, depth)
                if p is zero:
                    assert lengths[-1] == 1 and not np.any(got), lengths
                assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), p

    @pytest.mark.parametrize("tag, depth", fitted_tags((1, 10, 50, 500)))
    def test_chopped_fit_on_pixel_dots(self, tag, depth, monkeypatch):
        # Degree 16 passes on pixel-like dots, and its coefficients fall to
        # rounding well before c_16: the entries see fewer terms, and stay as
        # close to the exact solver.
        dots = data_dots()
        for p in FIT_CASES[tag]:
            if tag == VANILLA_NTK and p.sigma_w_sq == 0.0:
                continue  # the zero kernel: one term, tested above
            lengths = self.record_lengths(monkeypatch)
            got = kernel_from_dots(dots, tag, p, depth)
            monkeypatch.undo()
            assert lengths[0] == 17 and lengths[-1] < 17, (p, lengths)
            want = exact_values(dots, tag, p, depth)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), p

    def test_vanilla_depth_500_against_mpmath(self, caplog):
        # the second range lies next to the cusp, where the deep layers'
        # angle map is sharpest
        p = KernelParams(1.0, 0.0)
        for dots in (np.linspace(0.3, 0.9, 2001), np.cos(np.linspace(0.001, 0.05, 2001))):
            with caplog.at_level(logging.WARNING, logger="deqntk"):
                got = kernel_from_dots(dots, VANILLA_NTK, p, 500)
            assert not caplog.records
            for i in (0, 1000, 2000):
                want = mp_finite_depth(dots[i], 500, p)
                assert abs(got[i] - want) <= 1e-11 * abs(want), (dots[i], got[i], want)


class TestSweeps:
    def test_single_point_sweep(self):
        X = unit_rows(60, 12, seed=7)
        labels = np.arange(60) % 3
        vanilla = KernelParams(sigma_w_sq=1.0, sigma_u_sq=0.0)
        rows = depth_sweep(
            X, labels, [1], P, vanilla, reps=1, n_train=40, n_test=10,
            num_classes=3,
        )
        assert len(rows) == 2  # one per kernel
        assert all(0.0 <= r["accuracy"] <= 1.0 for r in rows)
        summary = summarize_sweep(rows)
        assert len(summary) == 2

    def test_sweep_fits_train_and_test_once(self, monkeypatch):
        # One fit per (kernel, depth) per rep, over the train self dots
        # stacked on the test x train dots, scores as the two Grams fitted
        # apart did.
        X = unit_rows(60, 12, seed=7)
        labels = np.arange(60) % 3
        vanilla = KernelParams(sigma_w_sq=1.0, sigma_u_sq=0.0)
        depths, reps, n_train, n_test = [1, 10, 50], 2, 40, 15
        shapes = []
        fit = gram.kernel_from_dots

        def counted(dots, tag, params, depth):
            shapes.append((tag, depth, dots.shape))
            return fit(dots, tag, params, depth)

        monkeypatch.setattr(gram, "kernel_from_dots", counted)
        rows = depth_sweep(X, labels, depths, P, vanilla, reps=reps, n_train=n_train,
                           n_test=n_test, num_classes=3, seed=4)
        monkeypatch.undo()
        pairs = [(tag, d) for tag in (FINITE_DEPTH_NTK, VANILLA_NTK) for d in depths]
        assert shapes == [(tag, d, (n_train + n_test, n_train)) for tag, d in pairs] * reps

        rng = np.random.default_rng(4)
        apart = []
        for _ in range(reps):
            tr, te = gram._split(rng, len(X), n_train, n_test)
            for tag, d in pairs:
                p = P if tag == FINITE_DEPTH_NTK else vanilla
                K = kernel_from_dots(gram._dot_matrix(X[tr]), tag, p, d)
                C = kernel_from_dots(gram._dot_matrix(X[te], X[tr]), tag, p, d)
                apart.append(regress_and_score(K, C, labels[tr], labels[te], 1e-4, 3))
        assert [r["accuracy"] for r in rows] == apart

    def test_sweep_requires_unit_rows(self):
        X = 1.5 * unit_rows(20, 6, seed=8)
        vanilla = KernelParams(sigma_w_sq=1.0, sigma_u_sq=0.0)
        with pytest.raises(DomainError):
            depth_sweep(X, np.arange(20) % 2, [1], P, vanilla, reps=1,
                        n_train=10, n_test=5, num_classes=2)

    @pytest.mark.parametrize("n_train, n_test", [(45, 10), (50, 0), (0, 10)])
    def test_sweep_split_sizes_checked(self, n_train, n_test):
        X = unit_rows(50, 6, seed=8)
        vanilla = KernelParams(sigma_w_sq=1.0, sigma_u_sq=0.0)
        with pytest.raises(ValueError, match="not enough samples"):
            depth_sweep(X, np.arange(50) % 2, [1], P, vanilla, reps=1,
                        n_train=n_train, n_test=n_test, num_classes=2)

    def test_sweep_deterministic_in_seed(self):
        X = unit_rows(50, 12, seed=8)
        labels = np.arange(50) % 5
        vanilla = KernelParams(sigma_w_sq=1.0, sigma_u_sq=0.0)
        args = (X, labels, [2], P, vanilla)
        kw = dict(reps=2, n_train=30, n_test=10, num_classes=5, seed=11)
        assert depth_sweep(*args, **kw) == depth_sweep(*args, **kw)

    def test_theta_vs_dot_depth_zero_identity(self):
        rows = theta_vs_dot_sweep(P, [0])
        assert all(r["theta"] == r["dot"] for r in rows)

    def test_deq_kernel_monotone_in_dot(self):
        rows = theta_vs_dot_sweep(P, [50])
        th = [r["theta"] for r in rows]
        assert all(b > a for a, b in zip(th, th[1:]))

    def test_vanilla_kernel_flattens_with_depth(self):
        # distinct pairs only: identical inputs never decorrelate
        vanilla = KernelParams(sigma_w_sq=1.0, sigma_u_sq=0.0)
        from deqntk import finite_depth_theta

        dots = np.linspace(-1.0, 0.99, 41)
        th = finite_depth_theta(dots, 8000, vanilla, include_output_layer=False)
        assert (th.max() - th.min()) / th.mean() < 0.01

    def test_csv_writer(self, tmp_path):
        rows = [{"kernel": "deq", "depth": 3, "accuracy": 0.5}]
        path = tmp_path / "rows.csv"
        write_rows_csv(rows, path, ["kernel", "depth", "accuracy"])
        lines = path.read_text().splitlines()
        assert lines[0] == "kernel,depth,accuracy"
        assert lines[1] == "deq,3,0.5"

    def test_cross_gram_shape(self):
        Xtr = unit_rows(8, 10, seed=9)
        Xte = unit_rows(3, 10, seed=10)
        C = cross_gram(Xte, Xtr, DEQ_NTK, P)
        assert C.shape == (3, 8)
