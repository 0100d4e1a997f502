import math

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from deqntk import (
    LINEAR,
    NORMALIZED_RELU,
    ConvergenceError,
    DomainError,
    KernelParams,
    SingularityError,
    theta_deq,
)
from deqntk import cli
from deqntk.conv import (
    build_normalizer,
    cdeq_k_step,
    cdeq_kernel_pair,
    cdeq_sigma_fixed_point,
    patch_trace,
    pixel_inner_tensor,
    validate_unit_pixels,
    _box_sum,
    _cdeq_pairs,
    _sigma_update,
    _tensor_diag,
)

P = KernelParams(sigma_w_sq=0.5, sigma_u_sq=0.5)


def unit_images(count, P_, Q, C, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((count, P_, Q, C))
    return x / np.linalg.norm(x, axis=-1, keepdims=True)


def relu_duals(rho):
    """Normalized-ReLU dual activation and its derivative, written out."""
    r = np.clip(rho, -1.0, 1.0)
    k0 = (np.pi - np.arccos(r)) / np.pi
    return (np.sqrt(1.0 - r * r) + k0 * np.pi * r) / np.pi, k0


def three_tensor_sigma(x, y, q, p, tol, max_iter=1000):
    """Reference covariance solve: iterates the (x, x), (y, y) and (x, y)
    tensors jointly and reads each pixel's self-covariance from the xx and
    yy diagonals.  Returns the limiting (K*, Kdot*) of the cross pair."""
    s = build_normalizer(x.shape[0], x.shape[1], q).s
    ss = np.multiply.outer(s, s)
    K0 = [pixel_inner_tensor(a, b) for a, b in ((x, x), (y, y), (x, y))]
    sig = [patch_trace(k, q) / ss for k in K0]

    def roots(sig):
        dx, dy = (np.einsum("ijij->ij", t) for t in sig[:2])
        return [np.sqrt(np.multiply.outer(a, b))
                for a, b in ((dx, dx), (dy, dy), (dx, dy))]

    for _ in range(max_iter):
        new = [
            patch_trace(p.sigma_w_sq * r * relu_duals(t / r)[0]
                        + p.sigma_u_sq * k0, q) / ss
            for t, r, k0 in zip(sig, roots(sig), K0)
        ]
        delta = max(np.max(np.abs(a - b)) for a, b in zip(new, sig))
        sig = new
        if delta <= tol:
            return sig[2], p.sigma_w_sq * relu_duals(sig[2] / roots(sig)[2])[1]
    raise AssertionError("reference solve did not converge")


def cdeq_theta(Kstar, Kdotstar, norm, tol=1e-8, max_iter=10000):
    """Full-tensor oracle: iterate the affine kernel fixed point
    Theta = Kdot* (.) L(Theta) + K* on the whole P x Q x P x Q tensor until
    no entry moves by more than ``tol``; returns the trace."""
    theta = Kstar.copy()
    for _ in range(max_iter):
        theta_new = Kdotstar * _sigma_update(theta, norm) + Kstar
        if float(np.max(np.abs(theta_new - theta))) <= tol:
            return float(np.sum(_tensor_diag(theta_new)))
        theta = theta_new
    raise AssertionError("full-tensor kernel iteration did not converge")


def cdeq_theta_direct(Kstar, Kdotstar, norm):
    """Dense direct solve of the affine kernel system; oracle for tiny
    images."""
    P_, Q = Kstar.shape[0], Kstar.shape[1]
    size = (P_ * Q) ** 2
    basis = np.eye(size)
    columns = np.empty((size, size))
    for j in range(size):
        E = basis[:, j].reshape(P_, Q, P_, Q)
        columns[:, j] = (Kdotstar * _sigma_update(E, norm)).ravel()
    theta = np.linalg.solve(np.eye(size) - columns, Kstar.ravel())
    return float(np.sum(_tensor_diag(theta.reshape(P_, Q, P_, Q))))


class TestNormalizer:
    def test_counts_8x8_q3(self):
        norm = build_normalizer(8, 8, 3)
        counts = norm.s**2
        assert counts[0, 0] == pytest.approx(4, abs=1e-12)  # corner
        assert counts[0, 3] == pytest.approx(6, abs=1e-12)  # edge
        assert counts[4, 4] == pytest.approx(9, abs=1e-12)  # interior

    def test_q1_all_ones(self):
        norm = build_normalizer(5, 7, 1)
        assert np.array_equal(norm.s, np.ones((5, 7)))

    def test_rejects_even_or_oversized_filter(self):
        with pytest.raises(ValueError):
            build_normalizer(8, 8, 2)
        with pytest.raises(ValueError):
            build_normalizer(4, 4, 5)


class TestPatchTrace:
    def test_identity_at_q1(self):
        M = np.random.default_rng(0).standard_normal((3, 3, 3, 3))
        assert np.array_equal(patch_trace(M, 1), M)

    def test_delta_tensor_by_hand(self):
        # a single nonzero entry spreads to every center whose window
        # reaches it at a matched offset
        M = np.zeros((3, 3, 3, 3))
        M[1, 1, 2, 2] = 1.0
        out = patch_trace(M, 3)
        # offsets (a, b) with 1 = i+a, 2 = i'+a require i - i' = -1 (same
        # for columns), with both centers in range
        expected = np.zeros_like(M)
        for a in (-1, 0, 1):
            for b in (-1, 0, 1):
                i, j, k, l = 1 - a, 1 - b, 2 - a, 2 - b
                if all(0 <= v <= 2 for v in (i, j, k, l)):
                    expected[i, j, k, l] = 1.0
        assert np.array_equal(out, expected)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_linearity(self, seed):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((4, 4, 4, 4))
        B = rng.standard_normal((4, 4, 4, 4))
        alpha = rng.standard_normal()
        lhs = patch_trace(alpha * A + B, 3)
        rhs = alpha * patch_trace(A, 3) + patch_trace(B, 3)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


class TestBoxSum:
    """Each window sum is within the recursive-summation bound (q^2 - 1) u
    sum|window| of the exact sum, u = 2^-53."""

    @staticmethod
    def assert_within_bound(got, windows, q):
        for value, window in zip(got.ravel(), windows):
            bound = (q * q - 1) * 2.0**-53 * math.fsum(abs(t) for t in window)
            assert abs(value - math.fsum(window)) <= bound

    @pytest.mark.parametrize("low", [0.0, -3.0])
    @pytest.mark.parametrize("q", [3, 5])
    def test_slices(self, low, q):
        M = np.random.default_rng(7).uniform(low, 3.0, (3, 32, 32))
        r = q // 2
        windows = [
            M[k, max(i - r, 0) : i + r + 1, max(j - r, 0) : j + r + 1].ravel().tolist()
            for k, i, j in np.ndindex(M.shape)
        ]
        self.assert_within_bound(_box_sum(M, q, (1,), (2,)), windows, q)

    @pytest.mark.parametrize("low", [0.0, -3.0])
    def test_patch_trace(self, low):
        rng = np.random.default_rng(8)
        for _ in range(2):
            M = rng.uniform(low, 3.0, (6, 6, 6, 6))
            windows = [
                [M[i + a, j + b, k + a, l + b]
                 for a in (-1, 0, 1) for b in (-1, 0, 1)
                 if all(0 <= v < 6 for v in (i + a, j + b, k + a, l + b))]
                for i, j, k, l in np.ndindex(M.shape)
            ]
            self.assert_within_bound(patch_trace(M, 3), windows, 3)


class TestKStep:
    def test_no_recurrence_reduces_to_injection(self):
        p0 = KernelParams(sigma_w_sq=0.0, sigma_u_sq=1.0)
        x, y = unit_images(2, 4, 4, 3)
        K0 = pixel_inner_tensor(x, y)
        K, Kdot = cdeq_k_step(K0.copy(), K0, p0)
        assert np.array_equal(K, p0.sigma_u_sq * K0)
        assert np.array_equal(Kdot, np.zeros_like(K0))

    def test_self_pair_diagonal_is_one(self):
        x = unit_images(1, 4, 4, 3)[0]
        K0 = pixel_inner_tensor(x, x)
        norm = build_normalizer(4, 4, 3)
        sigma = _sigma_update(K0, norm)
        K, _ = cdeq_k_step(sigma, K0, P)
        assert np.max(np.abs(_tensor_diag(K) - 1.0)) <= 1e-12

    def test_non_psd_rejected(self):
        x = unit_images(1, 3, 3, 2)[0]
        K0 = pixel_inner_tensor(x, x)
        bad = np.full((3, 3, 3, 3), 1.5)
        with pytest.raises(SingularityError):
            cdeq_k_step(bad, K0, P)

    def test_non_psd_exits_numeric(self, monkeypatch):
        # a failure mid-computation, not a configuration error
        x = unit_images(1, 3, 3, 2)[0]
        K0 = pixel_inner_tensor(x, x)
        bad = np.full((3, 3, 3, 3), 1.5)
        monkeypatch.setattr(cli, "assemble_gram",
                            lambda *args, **kwargs: cdeq_k_step(bad, K0, P))
        result = CliRunner().invoke(cli.main, ["cdeq", "--size", "3", "--images", "1"])
        assert result.exit_code == cli.EXIT_NUMERIC
        assert "error: cdeq: " in result.output


class TestFixedPoint:
    def test_self_covariance_diagonal_stays_one(self):
        x = unit_images(1, 8, 8, 3)[0]
        sigma, _ = cdeq_sigma_fixed_point(x, x, 3, P, tol=1e-12, max_iter=300)
        assert np.max(np.abs(_tensor_diag(sigma) - 1.0)) <= 1e-10

    @pytest.mark.parametrize("sw2, su2", [(0.3, 0.2), (0.8, 0.5), (0.65, 0.35)])
    @pytest.mark.parametrize("q", [1, 3])
    def test_matches_three_tensor_reference(self, sw2, su2, q):
        # sw2 + su2 != 1 moves the self-covariance diagonal off 1
        p = KernelParams(sigma_w_sq=sw2, sigma_u_sq=su2)
        x, y = unit_images(2, 5, 4, 3, seed=6)
        for a, b in ((x, y), (x, x)):
            Ks, Kd = cdeq_sigma_fixed_point(a, b, q, p, tol=1e-12, max_iter=1000)
            ref_Ks, ref_Kd = three_tensor_sigma(a, b, q, p, tol=1e-12)
            assert np.max(np.abs(Ks - ref_Ks)) <= 1e-10
            # a self pair's diagonal is pinned to d, so its correlation is
            # exactly 1 at the square-root cusp of Kdot, as in the reference
            assert np.max(np.abs(Kd - ref_Kd)) <= 1e-10

    def test_bias_rejected(self):
        p = KernelParams(sigma_w_sq=0.5, sigma_u_sq=0.4, sigma_b_sq=0.1)
        x, y = unit_images(2, 4, 4, 3)
        with pytest.raises(DomainError, match="sigma_b_sq"):
            cdeq_sigma_fixed_point(x, y, 3, p)

    def test_convergence_budget_8x8(self):
        p = KernelParams(sigma_w_sq=0.65, sigma_u_sq=0.35)
        x, y = unit_images(2, 8, 8, 3, seed=3)
        # must converge to 1e-6 within 30 sweeps
        cdeq_sigma_fixed_point(x, y, 3, p, tol=1e-6, max_iter=30)

    def test_divergence_reported(self):
        x, y = unit_images(2, 4, 4, 3)
        with pytest.raises(ConvergenceError):
            cdeq_sigma_fixed_point(x, y, 3, P, tol=1e-12, max_iter=1)

    @pytest.mark.parametrize("shape", [(4, 5, 3), (4, 4, 2)])
    def test_rejects_mismatched_shapes(self, shape):
        x = unit_images(1, 4, 4, 3)[0]
        y = unit_images(1, *shape)[0]
        with pytest.raises(ValueError, match="image shapes differ"):
            cdeq_sigma_fixed_point(x, y, 3, P)

    def test_zero_injection_rejected(self):
        # every covariance decays to 0, and d* = 0 has no correlation
        p = KernelParams(sigma_w_sq=0.5, sigma_u_sq=0.0)
        x, y = unit_images(2, 4, 4, 3)
        with pytest.raises(DomainError, match="sigma_u_sq"):
            cdeq_sigma_fixed_point(x, y, 3, p)
        with pytest.raises(DomainError, match="sigma_u_sq"):
            cdeq_kernel_pair(x, y, 3, p)

    def test_rejects_unnormalized_pixels(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((4, 4, 3))
        y = unit_images(1, 4, 4, 3)[0]
        with pytest.raises(DomainError):
            cdeq_sigma_fixed_point(x, y, 3, P)
        with pytest.raises(DomainError):
            validate_unit_pixels(x)


class TestTheta:
    def test_q1_reduces_to_scalar_kernel(self):
        x, y = unit_images(2, 4, 4, 3, seed=1)
        val = cdeq_kernel_pair(x, y, 1, P, sigma_tol=1e-12, max_iter=500)
        dots = np.einsum("ijc,ijc->ij", x, y)
        expected = sum(
            theta_deq(float(np.clip(d, -1, 1)), P).rho_star
            / (1.0 - theta_deq(float(np.clip(d, -1, 1)), P).sigma_dot_star)
            for d in dots.ravel()
        )
        assert abs(val - expected) <= 1e-8

    def test_iteration_matches_direct_solve(self):
        x, y = unit_images(2, 4, 4, 3, seed=2)
        norm = build_normalizer(4, 4, 3)
        Ks, Kd = cdeq_sigma_fixed_point(x, y, 3, P, tol=1e-12, max_iter=500)
        it = cdeq_theta(Ks, Kd, norm, tol=1e-12)
        direct = cdeq_theta_direct(Ks, Kd, norm)
        assert abs(it - direct) <= 1e-9

    def test_zero_derivative_returns_trace_of_kstar(self):
        x, y = unit_images(2, 4, 4, 3, seed=2)
        norm = build_normalizer(4, 4, 3)
        Ks, _ = cdeq_sigma_fixed_point(x, y, 3, P, tol=1e-10, max_iter=500)
        val = cdeq_theta(Ks, np.zeros_like(Ks), norm)
        assert abs(val - float(np.sum(_tensor_diag(Ks)))) <= 1e-12

    def test_pair_symmetry(self):
        x, y = unit_images(2, 5, 5, 3, seed=4)
        a = cdeq_kernel_pair(x, y, 3, P, sigma_tol=1e-10, max_iter=300)
        b = cdeq_kernel_pair(y, x, 3, P, sigma_tol=1e-10, max_iter=300)
        assert abs(a - b) <= 1e-9

    def test_gram_psd_small(self):
        imgs = unit_images(6, 5, 5, 3, seed=5)
        G = np.empty((6, 6))
        for i in range(6):
            for j in range(i, 6):
                G[i, j] = G[j, i] = cdeq_kernel_pair(
                    imgs[i], imgs[j], 3, P, sigma_tol=1e-10, max_iter=300
                )
        w = np.linalg.eigvalsh(G)
        assert w[0] >= -1e-8 * w[-1]


class TestSliceSolver:
    """The offset-0 slice solver behind cdeq_kernel_pair against the
    full-tensor path: covariance tensor, then the full kernel iteration."""

    @pytest.mark.parametrize("sw2, su2", [(0.3, 0.2), (0.8, 0.5), (0.65, 0.35)])
    @pytest.mark.parametrize("shape, q", [((5, 4), 1), ((5, 4), 3), ((7, 6), 5)])
    def test_matches_full_tensor_oracle(self, sw2, su2, shape, q):
        # sw2 + su2 != 1 moves the self-covariance diagonal d off 1
        p = KernelParams(sigma_w_sq=sw2, sigma_u_sq=su2)
        norm = build_normalizer(*shape, q)
        x, y = unit_images(2, *shape, 3, seed=11)
        for a, b in ((x, y), (x, x)):
            Ks, Kd = cdeq_sigma_fixed_point(a, b, q, p, tol=1e-12, max_iter=1000)
            want = cdeq_theta(Ks, Kd, norm, tol=1e-12)
            got = cdeq_kernel_pair(a, b, q, p, sigma_tol=1e-12, theta_tol=1e-12,
                                   max_iter=1000)
            assert abs(got - want) <= 1e-10 * abs(want)

    def test_blocks_do_not_change_values(self, monkeypatch):
        import deqntk.conv as conv

        imgs = unit_images(5, 4, 3, 2, seed=12)
        rows, cols = np.triu_indices(5)
        whole = _cdeq_pairs(imgs, imgs, rows, cols, 3, P)
        # two pairs per block: the last block is short
        monkeypatch.setattr(conv, "_BLOCK", 2 * 4 * 3)
        assert np.array_equal(_cdeq_pairs(imgs, imgs, rows, cols, 3, P), whole)

    def test_covariance_budget_names_stage_and_pair(self):
        x, y = unit_images(2, 4, 4, 3)
        with pytest.raises(ConvergenceError) as info:
            cdeq_kernel_pair(x, y, 3, P, max_iter=1)
        msg = str(info.value)
        assert msg.startswith("covariance fixed point: 1 of 1 image pairs")
        assert "in 1 iterations" in msg and "images (0, 0)" in msg
        assert "max change" in msg

    def test_kernel_budget_names_stage_and_pair(self, monkeypatch):
        import deqntk.conv as conv

        monkeypatch.setattr(conv, "_THETA_MAX_ITER", 1)
        imgs = unit_images(3, 4, 4, 3)
        with pytest.raises(ConvergenceError) as info:
            _cdeq_pairs(imgs, imgs, [0, 1, 2], [0, 2, 1], 3, P)
        msg = str(info.value)
        # the self pair (0, 0) takes its closed form and does not iterate
        assert msg.startswith("kernel fixed point: 2 of 3 image pairs")
        assert "images (1, 2)" in msg and "trace error bound" in msg

    def test_rejects_mismatched_shapes(self):
        x = unit_images(1, 4, 4, 3)[0]
        y = unit_images(1, 4, 5, 3)[0]
        with pytest.raises(ValueError, match="image shapes differ"):
            cdeq_kernel_pair(x, y, 3, P)


class TestSelfPairs:
    """A pair of equal images takes P * Q * d* / (1 - sigma_w_sq), d* =
    sigma_u_sq / (1 - sigma_w_sq), without iterating."""

    @pytest.mark.parametrize("activation", [NORMALIZED_RELU, LINEAR])
    @pytest.mark.parametrize("sw2, su2", [(0.65, 0.35), (0.3, 0.2), (0.8, 0.5)])
    def test_closed_form(self, activation, sw2, su2):
        p = KernelParams(sigma_w_sq=sw2, sigma_u_sq=su2, activation=activation)
        x = unit_images(1, 5, 4, 3, seed=13)[0]
        d = su2 / (1 - sw2)
        assert cdeq_kernel_pair(x, x, 3, p) == 5 * 4 * d / (1 - sw2)

    def test_blocks_of_self_pairs(self, monkeypatch):
        import deqntk.conv as conv

        imgs = unit_images(3, 4, 3, 2, seed=14)
        rows, cols = [0, 1, 0, 2, 1], [0, 1, 2, 2, 0]
        want = [cdeq_kernel_pair(imgs[i], imgs[j], 3, P) for i, j in zip(rows, cols)]
        # two pairs per block: self pairs only, then one of each, then one
        monkeypatch.setattr(conv, "_BLOCK", 2 * 4 * 3)
        assert np.array_equal(_cdeq_pairs(imgs, imgs, rows, cols, 3, P), want)
