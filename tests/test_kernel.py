import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import brentq

from deqntk import (
    ConvergenceError,
    DomainError,
    KernelParams,
    LINEAR,
    NORMALIZED_RELU,
    dual_activation,
    dual_activation_dot,
    finite_depth_ntk,
    finite_depth_theta,
    theta_deq,
    theta_deq_grid,
    theta_linear_deq,
)
from deqntk import kernel
from mp_oracles import mp_deq, mp_finite_depth_state

P_HALF = KernelParams(sigma_w_sq=0.5, sigma_u_sq=0.5)


def solve_rho_star(dot, params):
    """Fixed point s* of the covariance map, rho* under the unit-sum
    initialization, entry by entry; scalar in, scalar out."""
    return np.vectorize(lambda x: theta_deq(x, params).rho_star, otypes=[float])(dot)[()]


class TestDualActivations:
    def test_exact_values(self):
        assert abs(dual_activation(-1.0) - 0.0) <= 1e-14
        assert abs(dual_activation(0.0) - 1.0 / np.pi) <= 1e-14
        assert abs(dual_activation(1.0) - 1.0) <= 1e-14
        assert abs(dual_activation_dot(-1.0) - 0.0) <= 1e-14
        assert abs(dual_activation_dot(0.0) - 0.5) <= 1e-14
        assert abs(dual_activation_dot(1.0) - 1.0) <= 1e-14

    @given(st.floats(-1.0, 1.0))
    def test_bounds(self, rho):
        val = dual_activation(rho)
        dot = dual_activation_dot(rho)
        assert -1.0 <= val <= 1.0 + 1e-15
        assert 0.0 <= dot <= 1.0
        # the pair correlation never decreases under the activation map
        assert val >= rho - 1e-15

    @given(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
    def test_one_lipschitz(self, a, b):
        if a == b:
            return
        assert abs(dual_activation(a) - dual_activation(b)) <= abs(a - b) + 1e-12

    def test_domain_error(self):
        with pytest.raises(DomainError):
            dual_activation(1.5)
        with pytest.raises(DomainError):
            dual_activation_dot(-1.0001)

    @pytest.mark.parametrize("dual", [dual_activation, dual_activation_dot])
    def test_return_types(self, dual):
        # a float in gives a float out; an array, a new array of its shape
        assert type(dual(0.25)) is float
        for rho in (np.array(0.25), np.full((2, 3), 0.25), np.empty(0)):
            out = dual(rho)
            assert isinstance(out, np.ndarray) and out.shape == rho.shape
            out[...] = 0.0
            assert np.all(rho == 0.25)


class TestFixedPoint:
    def test_rho_star_reference_value(self):
        assert abs(solve_rho_star(0.0, P_HALF) - 0.2172336282) <= 1e-9

    def test_rho_star_against_independent_root_finder(self):
        for dot in (-1.0, -0.3, 0.0, 0.4, 0.9):
            for sw2 in (0.125, 0.4, 0.7):
                p = KernelParams(sigma_w_sq=sw2, sigma_u_sq=1.0 - sw2)
                f = lambda r: sw2 * dual_activation(r) + (1 - sw2) * dot - r
                ref = brentq(f, -1.0, 1.0, xtol=1e-14)
                assert abs(solve_rho_star(dot, p) - ref) <= 1e-10

    def test_identical_inputs(self):
        res = theta_deq(1.0, P_HALF)
        assert abs(res.rho_star - 1.0) <= 1e-12
        # interior 1/(1 - 0.5) plus readout value 1
        assert abs(res.theta - 3.0) <= 1e-10
        # x.y = 1 starts at its root u = 0, and each entry stops on its own,
        # so its value is the same in any batch; with k0(1) = k1(1) = 1 it is
        # the linear kernel's
        rng = np.random.default_rng(14)
        batch = np.append(np.cos(np.linspace(0.05, 3.0, 35)), 1.0)
        for _ in range(200):
            sw2, su2, sb2 = rng.uniform(0.01, 0.99), rng.uniform(0.0, 1.0), rng.uniform(0.01, 1.0)
            rng.shuffle(batch)
            for act in (NORMALIZED_RELU, LINEAR):
                p = KernelParams(sw2, su2, sb2, activation=act)
                one = theta_deq(1.0, p).theta
                assert theta_deq_grid(batch, p)[batch == 1.0] == one, p
                assert abs(one - theta_linear_deq(1.0, p)) <= 4 * np.spacing(one), p

    def test_budget_names_first_unconverged_dot(self, monkeypatch):
        monkeypatch.setattr(kernel, "_MAX_NEWTON_ITER", 1)
        # x.y = 1 starts at its root and freezes at step 1; the other two do not
        with pytest.raises(ConvergenceError, match=r"2 of 3 dots .* first is x\.y = -0\.5,"):
            theta_deq_grid(np.array([1.0, -0.5, 0.3]), P_HALF)

    @pytest.mark.parametrize("sw2", [0.999, 0.9999])
    def test_newton_steps_near_contraction_limit(self, sw2):
        # An entry stops once |du| <= 1e-8 u, where Newton's next error is
        # about (|du| / u)^2 / 4, so no entry waits on rounding noise in the
        # step; the most measured were 9 and 10 steps.
        p = KernelParams(sw2, 1.0 - sw2)
        dots = np.concatenate([1.0 - np.logspace(-16, np.log10(1.99), 2000),
                               np.linspace(-1.0, 1.0, 200)])
        assert max(theta_deq(d, p).iterations for d in dots) <= 10

    def test_finite_depth_matches_limit(self):
        dots = np.linspace(-1.0, 1.0, 19)
        for sw2 in (0.125, 0.25, 0.5, 0.75):
            p = KernelParams(sigma_w_sq=sw2, sigma_u_sq=1.0 - sw2)
            limit = theta_deq_grid(dots, p)
            deep = finite_depth_theta(dots, 2000, p)
            assert np.all(np.abs(deep - limit) <= 1e-8 * np.abs(limit))

    def test_grid_matches_scalar_path(self):
        dots = np.linspace(-0.99, 0.99, 25)
        grid = theta_deq_grid(dots, P_HALF)
        loop = np.array([theta_deq(float(d), P_HALF).theta for d in dots])
        assert np.max(np.abs(grid - loop)) <= 1e-10

    @given(st.floats(-1.0, 0.999), st.floats(-1.0, 0.999))
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_dot(self, a, b):
        if abs(a - b) < 1e-6:  # below solver resolution
            return
        lo, hi = sorted((a, b))
        assert theta_deq(lo, P_HALF).theta < theta_deq(hi, P_HALF).theta

    def test_contraction_required(self):
        p = KernelParams(sigma_w_sq=1.0, sigma_u_sq=0.0)
        with pytest.raises(ValueError):
            theta_deq(0.0, p)

    def test_dot_domain(self):
        p_lin = KernelParams(sigma_w_sq=0.125, sigma_u_sq=0.875, activation=LINEAR)
        with pytest.raises(DomainError):
            theta_deq(1.1, P_HALF)
        with pytest.raises(DomainError):
            theta_linear_deq(np.array([0.5, -1.0 - 1e-9]), p_lin)
        # rounding noise past +-1 is clamped, in both cores and the closed form
        edges = np.array([1.0 + 1e-13, -1.0 - 1e-13])
        for solve in (lambda x: theta_deq_grid(x, P_HALF),
                      lambda x: finite_depth_theta(x, 5, P_HALF),
                      lambda x: theta_linear_deq(x, p_lin)):
            assert np.array_equal(solve(edges), solve(np.array([1.0, -1.0])))


class TestLinearKernel:
    P_LIN = KernelParams(
        sigma_w_sq=0.125, sigma_u_sq=0.875, sigma_v_sq=2.0, activation=LINEAR
    )

    def test_closed_form_value(self):
        # sv2 * su2 * dot * (1/(1-sw2)^2 + 1/(1-sw2)) at dot=1
        expected = 2.0 * 0.875 * (1.0 / 0.875**2 + 1.0 / 0.875)
        assert abs(theta_linear_deq(1.0, self.P_LIN) - expected) <= 1e-12

    def test_matches_fixed_point_solver(self):
        dots = np.linspace(-1.0, 1.0, 11)
        closed = theta_linear_deq(dots, self.P_LIN)
        solver = theta_deq_grid(dots, self.P_LIN)
        assert np.max(np.abs(closed - solver)) <= 1e-10

    def test_bias_matches_fixed_point_solver(self):
        p = KernelParams(
            sigma_w_sq=0.3, sigma_u_sq=0.5, sigma_b_sq=0.2, activation=LINEAR
        )
        for dot in np.linspace(-1.0, 1.0, 9):
            closed = theta_linear_deq(dot, p)
            assert abs(closed - theta_deq(dot, p).theta) <= 1e-12

    def test_proportional_to_dot(self):
        assert theta_linear_deq(0.0, self.P_LIN) == 0.0
        assert abs(
            theta_linear_deq(-0.5, self.P_LIN) + 0.5 * theta_linear_deq(1.0, self.P_LIN)
        ) <= 1e-12


class TestFiniteDepth:
    def test_depth_zero_interior_is_dot(self):
        dots = np.linspace(-1, 1, 9)
        out = finite_depth_theta(dots, 0, P_HALF, include_output_layer=False)
        assert np.array_equal(out, dots)

    def test_state_fields(self):
        state = finite_depth_ntk(0.3, 50, P_HALF)
        assert state.depth == 50
        assert -1.0 <= state.rho <= 1.0
        assert 0.0 <= state.sigma_dot <= P_HALF.sigma_w_sq

    def test_theta_increases_with_depth(self):
        values = [finite_depth_ntk(0.2, d, P_HALF).theta for d in (1, 5, 20, 100)]
        assert all(b > a for a, b in zip(values, values[1:]))

    @given(st.integers(0, 30), st.floats(-1.0, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_scalar_matches_vector_path(self, d, dot):
        vec = finite_depth_theta(np.array([dot]), d, P_HALF)
        scal = finite_depth_ntk(dot, d, P_HALF).theta
        assert abs(vec[0] - scal) <= 1e-12


class TestZeroInjection:
    """sigma_u_sq = sigma_b_sq = 0: every covariance decays to 0."""

    P_ZERO = KernelParams(sigma_w_sq=0.5, sigma_u_sq=0.0)

    def test_scalar(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = theta_deq(0.3, self.P_ZERO)
        assert res.theta == 0.0 and res.rho_star == 0.0
        assert res.sigma_dot_star == self.P_ZERO.sigma_w_sq

    def test_grid(self):
        dots = np.linspace(-1.0, 1.0, 9).reshape(3, 3)
        for p in (self.P_ZERO, KernelParams(0.5, 0.0, activation=LINEAR)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                grid = theta_deq_grid(dots, p)
                rho = solve_rho_star(dots, p)
            assert np.array_equal(grid, np.zeros_like(dots))
            assert np.array_equal(rho, np.zeros_like(dots))
            assert np.array_equal(grid, theta_linear_deq(dots, p))
            # the depth limit of the recursion
            assert np.max(np.abs(finite_depth_theta(dots, 200, p))) <= 1e-12

    @pytest.mark.parametrize("sw2, depth", [(0.5, 1100), (0.0, 1)])
    def test_underflowed_diagonal_reads_zero(self, sw2, depth):
        # sw2^depth is 0 in floating point: past depth ~1075 at sw2 = 0.5,
        # from depth 1 at sw2 = 0
        dots = np.linspace(-1.0, 1.0, 9)
        for p in (KernelParams(sw2, 0.0), KernelParams(sw2, 0.0, activation=LINEAR)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                theta = finite_depth_theta(dots, depth, p)
                interior = finite_depth_theta(dots, depth, p, include_output_layer=False)
                state = finite_depth_ntk(0.3, depth, p)
            assert np.array_equal(theta, np.zeros_like(dots))
            assert np.array_equal(interior, np.zeros_like(dots))
            assert state.theta == 0.0
            assert np.isfinite(state.rho) and np.isfinite(state.sigma_dot)


class TestAgainstMpmath:
    """Both cores against the high-precision oracles, entry by entry."""

    @pytest.mark.parametrize("sw2", [0.1, 0.5, 0.9, 0.999])
    def test_fixed_point_over_the_gap(self, sw2):
        p = KernelParams(sw2, 1.0 - sw2)
        dots = 1.0 - np.logspace(-16, 0.3, 18)
        got = theta_deq_grid(dots, p)
        for x, value in zip(dots, got):
            want = mp_deq(x, p)
            assert abs(value - want) <= 1e-13 * abs(want), (x, value, want)

    def test_fixed_point_with_bias(self):
        # sigma_b_sq > 0 and no unit-sum normalization: a != 1
        rng = np.random.default_rng(16)
        for _ in range(8):
            p = KernelParams(rng.uniform(0.05, 0.99), rng.uniform(0.0, 1.0),
                             rng.uniform(0.05, 1.0), rng.uniform(0.5, 2.0))
            dots = np.concatenate([rng.uniform(-1.0, 1.0, 3), 1.0 - np.logspace(-16, -4, 3)])
            for x, value in zip(dots, theta_deq_grid(dots, p)):
                want = mp_deq(x, p)
                assert abs(value - want) <= 1e-13 * abs(want), (p, x, value, want)

    @pytest.mark.parametrize("params", [
        KernelParams(0.6, 0.4),
        KernelParams(0.5, 0.3, sigma_b_sq=0.4, sigma_v_sq=2.0),
        KernelParams(1.0, 0.0),
        KernelParams(0.8, 0.0, sigma_b_sq=0.5),
    ])
    def test_finite_depth(self, params):
        dots = np.array([-1.0, -0.3, 0.3, 0.927, 1.0 - 1e-8, 1.0 - 2.0**-52, 1.0])
        for depth in (1, 10, 100, 500):
            for x, value in zip(dots, finite_depth_theta(dots, depth, params)):
                rho, sigma_dot, want = mp_finite_depth_state(x, depth, params)
                assert abs(value - want) <= 1e-13 * abs(want), (depth, x, value, want)
                # the pair state: the correlation entering the readout, to
                # 1e-13 of its gap to 1, and the last interior sigma_dot
                state = finite_depth_ntk(x, depth, params)
                assert state.theta == value
                assert abs(state.rho - rho) <= 1e-13 * (1.0 - rho) + 2.0**-52, (depth, x)
                assert abs(state.sigma_dot - sigma_dot) <= 1e-13 * sigma_dot, (depth, x)


# Block boundaries of the array cores, at a block of 16 entries: one entry,
# one short of a block, a full block, one past it and two blocks and a
# partial one.
BLOCK = 16
SIZES = (1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3)
EDGE_PARAMS = (
    P_HALF,
    KernelParams(sigma_w_sq=0.6, sigma_u_sq=0.1, sigma_b_sq=0.3, sigma_v_sq=2.0),
    KernelParams(sigma_w_sq=0.999, sigma_u_sq=0.001),
    KernelParams(sigma_w_sq=0.3, sigma_u_sq=0.5, sigma_b_sq=0.2, activation=LINEAR),
)


@pytest.fixture
def small_blocks(monkeypatch):
    monkeypatch.setattr(kernel, "_BLOCK", BLOCK)


def edge_dots(size, seed=0):
    """Shuffled dots with -1, 1 and values next to both among them, so that
    blocks mix fast and slow Newton entries, and angles on both sides of the
    series switch."""
    rng = np.random.default_rng(seed)
    dots = rng.uniform(-1.0, 1.0, size)
    edges = [-1.0, 1.0, 1.0 - 2.0**-52, 1.0 - 1e-8, np.cos(0.049), np.cos(0.051), 0.0,
             -1.0 + 2.0**-52, -1.0 + 1e-10]
    dots[: len(edges)] = edges[:size]
    return rng.permutation(dots)


def shaped_inputs(sizes):
    """0-d, 1-d at each size, 2-D, a transposed view and an empty array."""
    yield np.array(0.25)
    for size in sizes:
        yield edge_dots(size)
    yield edge_dots(3 * (BLOCK // 2 + 1)).reshape(3, -1)
    yield edge_dots(3 * (BLOCK // 2 + 1)).reshape(-1, 3).T
    yield np.empty((0, 4))


def assert_entrywise(solve, dot):
    """``solve(dot)`` has ``dot``'s shape, and each entry equals that dot
    solved alone, bit for bit."""
    got = solve(dot)
    assert got.shape == dot.shape
    alone = [solve(np.array([x]))[0] for x in dot.ravel()]
    assert np.array_equal(got.ravel(), alone)
    return got


@pytest.mark.usefixtures("small_blocks")
class TestBlockBoundaries:
    @pytest.mark.parametrize("params", EDGE_PARAMS)
    @pytest.mark.parametrize("depth", [0, 1, 10, 500])
    def test_finite_depth_bit_identical(self, params, depth):
        # every entry of a multi-block call is the dot solved alone; depth
        # 500 runs on one size per block boundary case to bound the time
        sizes = SIZES if depth <= 10 else (BLOCK + 1,)
        for dot in shaped_inputs(sizes):
            got = assert_entrywise(lambda x: finite_depth_theta(x, depth, params), dot)
            assert_entrywise(
                lambda x: finite_depth_theta(x, depth, params, include_output_layer=False), dot
            )
            if dot.ndim == 0:
                state = finite_depth_ntk(float(dot), depth, params)
                assert state.theta == got == finite_depth_theta(float(dot), depth, params)

    @given(
        st.floats(0.0, 0.999),
        st.floats(0.0, 1.0),
        st.floats(0.0, 1.0),
        st.sampled_from([NORMALIZED_RELU, LINEAR]),
        st.integers(0, 12),
    )
    @example(0.0, 0.0, 0.0, NORMALIZED_RELU, 1)  # the diagonal vanishes
    @settings(max_examples=25, deadline=None)
    def test_finite_depth_bit_identical_any_params(self, sw2, su2, sb2, act, depth):
        p = KernelParams(sw2, su2, sb2, activation=act)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernel, "_BLOCK", BLOCK)
            assert_entrywise(lambda x: finite_depth_theta(x, depth, p), edge_dots(BLOCK + 1))

    @pytest.mark.parametrize("params", EDGE_PARAMS)
    def test_newton_grid_matches_scalar(self, params):
        # The grid and the scalar path agree bit for bit, at x.y = 1 too.
        rng = np.random.default_rng(4)
        pool = np.concatenate([edge_dots(7), rng.uniform(-1.0, 1.0, 60)])
        scalar = [theta_deq(float(v), params) for v in pool]
        ref = np.array([r.theta for r in scalar])
        for size in SIZES:
            idx = rng.integers(0, pool.size, size)
            for shape in ((size,), (1, size)):
                theta = theta_deq_grid(pool[idx].reshape(shape), params)
                assert theta.shape == shape
                assert np.array_equal(theta.ravel(), ref[idx])
            *_, iterations, residual = kernel._fixed_point(pool[idx], params)
            assert iterations == max(scalar[i].iterations for i in idx)
            assert residual == max(scalar[i].residual for i in idx)
            # |F| at the frozen entries is rounding noise on the scale of the
            # diagonal limit (at most 1.6e-16 of it measured)
            assert np.ndim(residual) == 0
            assert residual <= 1e-14 * max(1.0, kernel._diag_fixed_point(params))

    @pytest.mark.parametrize("params", EDGE_PARAMS)
    def test_newton_stops_per_block(self, params):
        # Each entry stops on its own, whatever the other entries of its
        # block hold: its covariance, angle and kernel are those of the dot
        # solved alone, and the counts are the entries' largest.
        dot = edge_dots(2 * BLOCK + 3)
        *arrays, iterations, residual = kernel._fixed_point(dot, params)
        alone = [kernel._fixed_point(dot[i : i + 1], params) for i in range(dot.size)]
        for got, parts in zip(arrays, zip(*alone)):
            assert np.array_equal(got, np.concatenate(parts))
        assert iterations == max(part[3] for part in alone)
        assert residual == max(part[4] for part in alone)
        assert_entrywise(lambda x: theta_deq_grid(x, params), dot)

    def test_newton_odd_shapes(self):
        for dot in shaped_inputs((2 * BLOCK + 3,)):
            assert_entrywise(lambda x: theta_deq_grid(x, P_HALF), dot)


def traced_peak(f, *args):
    """Peak traced allocation of ``f(*args)`` in bytes."""
    tracemalloc.start()
    try:
        f(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("solve, scratch", [
    (lambda dot: theta_deq_grid(dot, P_HALF), 24),
    (lambda dot: finite_depth_theta(dot, 10, P_HALF), 17),
], ids=["newton", "finite-depth"])
def test_grid_peak_is_one_output(solve, scratch):
    # One full-size output plus at most ``scratch`` block-sized temporaries
    # (22.3 and 15.1 measured); a second full-size array would add 7.6 blocks.
    dot = np.random.default_rng(5).uniform(-1.0, 1.0, 250_000)
    assert traced_peak(solve, dot) <= dot.nbytes + scratch * 8 * kernel._BLOCK
