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
from deqntk.kernel import _BLOCK, _fixed_point

P_HALF = KernelParams(sigma_w_sq=0.5, sigma_u_sq=0.5)


def solve_rho_star(dot, params):
    """Fixed point s* of the covariance map, rho* under the unit-sum
    initialization; scalar in, scalar out."""
    s = _fixed_point(dot, params)[0]
    return float(s) if np.isscalar(dot) else s


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
        # x.y = 1 takes the closed-form root s* = a, so its value is the same
        # in any batch; with k0(1) = k1(1) = 1 it is the linear kernel's
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
        # x.y = 1 starts at its root; the other two do not
        with pytest.raises(ConvergenceError, match=r"first unconverged x\.y = -0\.5\)"):
            theta_deq_grid(np.array([1.0, -0.5, 0.3]), P_HALF)

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
        with pytest.raises(DomainError):
            theta_deq(1.1, P_HALF)


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


# Block boundaries of the array cores: one entry, one short of a block, a
# full block, one past it and two blocks and a partial one.
SIZES = (1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3)
EDGE_PARAMS = (
    P_HALF,
    KernelParams(sigma_w_sq=0.6, sigma_u_sq=0.1, sigma_b_sq=0.3, sigma_v_sq=2.0),
    KernelParams(sigma_w_sq=0.999, sigma_u_sq=0.001),
    KernelParams(sigma_w_sq=0.3, sigma_u_sq=0.5, sigma_b_sq=0.2, activation=LINEAR),
)


def edge_dots(size, seed=0):
    """Sorted dots with both ends +-1 exactly, so blocks hold different
    values, plus a few entries at the cusp."""
    rng = np.random.default_rng(seed)
    dots = np.sort(rng.uniform(-1.0, 1.0, size))
    dots[[0, -1]] = -1.0, 1.0
    dots[size // 2 :: 997] = 1.0
    return dots


def shaped_inputs(sizes):
    """0-d, 1-d at each size, 2-D, a transposed view and an empty array."""
    yield np.array(0.25)
    for size in sizes:
        yield edge_dots(size)
    yield edge_dots(3 * (_BLOCK // 2 + 1)).reshape(3, -1)
    yield edge_dots(3 * (_BLOCK // 2 + 1)).reshape(-1, 3).T
    yield np.empty((0, 4))


def finite_depth_reference(dot, d, params):
    """The layer recursion over whole arrays, one layer at a time."""
    sw2, su2, sb2 = params.sigma_w_sq, params.sigma_u_sq, params.sigma_b_sq

    def k1(r):
        if params.activation == LINEAR:
            return r
        return (np.sqrt(1.0 - r * r) + (np.pi - np.arccos(r)) * r) / np.pi

    def k0(r):
        if params.activation == LINEAR:
            return np.ones_like(r)
        return (np.pi - np.arccos(r)) / np.pi

    dot = np.asarray(dot, dtype=float)
    diag, cov, theta = 1.0, dot.copy(), dot.copy()
    sigma_dot = np.zeros_like(dot)
    vanished = False
    for _ in range(d):
        if sw2 * diag + su2 + sb2 == 0.0:
            # the diagonal, and with it every covariance, has vanished: the
            # kernel is 0, and rho, sigma_dot are those of the last layer
            vanished = True
            break
        rho = np.clip(cov / diag, -1.0, 1.0)
        sigma_dot = sw2 * k0(rho)
        cov = sw2 * diag * k1(rho) + su2 * dot + sb2
        diag = sw2 * diag + su2 + sb2
        theta = sigma_dot * theta + cov
    rho = np.clip(cov / diag, -1.0, 1.0)
    out = params.sigma_v_sq * (k0(rho) * theta + diag * k1(rho))
    if vanished:
        theta, out = np.zeros_like(dot), np.zeros_like(dot)
    return rho, sigma_dot, theta, out


class TestBlockBoundaries:
    @pytest.mark.parametrize("params", EDGE_PARAMS)
    @pytest.mark.parametrize("depth", [0, 1, 10, 500])
    def test_finite_depth_bit_identical(self, params, depth):
        # depth 500 runs on one size per block boundary case to bound the time
        sizes = SIZES if depth <= 10 else (_BLOCK + 1,)
        for dot in shaped_inputs(sizes):
            ref = finite_depth_reference(dot, depth, params)
            got = finite_depth_theta(dot, depth, params)
            assert got.shape == dot.shape
            assert np.array_equal(got, ref[3])
            assert np.array_equal(
                finite_depth_theta(dot, depth, params, include_output_layer=False),
                ref[2],
            )
            if dot.ndim == 0:
                state = finite_depth_ntk(dot, depth, params)
                assert (state.rho, state.sigma_dot, state.theta) == tuple(
                    float(x) for x in (ref[0], ref[1], ref[3])
                )

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
        dot = edge_dots(_BLOCK + 1)
        assert np.array_equal(
            finite_depth_theta(dot, depth, p),
            finite_depth_reference(dot, depth, p)[3],
        )

    @pytest.mark.parametrize("params", EDGE_PARAMS)
    def test_newton_grid_matches_scalar(self, params):
        rng = np.random.default_rng(4)
        pool = np.concatenate([[-1.0, 1.0, 1.0 - 1e-12], rng.uniform(-1.0, 1.0, 300)])
        pool.sort()
        scalar = [theta_deq(float(v), params) for v in pool]
        ref_s = np.array([r.rho_star for r in scalar])
        ref = np.array([r.theta for r in scalar])
        # Both solves stop at |F(s)| <= 1e-12 and |F'| >= 1 - sigma_w_sq, but
        # a scalar stops at its own first such step while a block runs on
        # until its slowest entry converges.  Theta inherits that gap through
        # 1 / (1 - sigma_dot) and the arccos cusp: 3.5e-12 relative at
        # sigma_w_sq = 0.5 and 1.9e-8 at 0.999 for these pools.  x.y = 1
        # takes the closed-form root in both, so it matches bit for bit.
        s_tol = 2e-12 / (1.0 - params.sigma_w_sq)
        for size in SIZES:
            # sorted indices give each block a different range of values
            idx = np.sort(rng.integers(0, pool.size, size))
            idx[[0, -1]] = 0, pool.size - 1
            for shape in ((size,), (1, size)):
                s, _, theta, iterations, residual = _fixed_point(
                    pool[idx].reshape(shape), params
                )
                assert theta.shape == shape
                assert np.ndim(residual) == 0 and residual <= 1e-12
                assert np.max(np.abs(s.ravel() - ref_s[idx])) <= s_tol
                rel = np.abs(theta.ravel() - ref[idx]) / np.abs(ref[idx])
                assert np.max(rel) <= 1e-7
                one = pool[idx] == 1.0
                assert np.array_equal(theta.ravel()[one], ref[idx][one])
                assert iterations == max(scalar[i].iterations for i in np.unique(idx))

    def test_newton_odd_shapes(self):
        for dot in (np.array(0.25), np.empty((0, 4)), edge_dots(6).reshape(2, 3).T):
            grid = theta_deq_grid(dot, P_HALF)
            assert grid.shape == dot.shape
            for g, v in zip(grid.ravel(), dot.ravel()):
                assert abs(g - theta_deq(float(v), P_HALF).theta) <= 1e-11 * abs(g)
