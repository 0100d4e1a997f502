import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq

from deqntk import (
    DomainError,
    KernelParams,
    LINEAR,
    dual_activation,
    dual_activation_dot,
    finite_depth_ntk,
    finite_depth_theta,
    solve_rho_star,
    theta_deq,
    theta_deq_grid,
    theta_linear_deq,
)

P_HALF = KernelParams(sigma_w_sq=0.5, sigma_u_sq=0.5)


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
