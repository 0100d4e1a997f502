import dataclasses
import re

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from deqntk import (
    ConvergenceError,
    DomainError,
    KernelParams,
    LINEAR,
    SingularityError,
    theta_linear_deq,
)
from deqntk import empirical
from deqntk.empirical import (
    DeqWeights,
    EmpiricalNtkBreakdown,
    deq_forward,
    empirical_spectrum,
    ift_ntk_pair,
    make_weights,
    resolvent_trace,
    _act_pair,
    _adjoint_vector,
    _injection,
    _inverse_frobenius_sq,
    _shifted_identity,
    _stream,
)

P = KernelParams(sigma_w_sq=0.125, sigma_u_sq=0.875, sigma_v_sq=2.0)
P_LIN = KernelParams(
    sigma_w_sq=0.125, sigma_u_sq=0.875, sigma_v_sq=2.0, activation=LINEAR
)


# Oracles: the unrolled finite-depth network and the exact resolvent
# form of the linear network, checked against the implicit-gradient kernel.


def _layer_W(weights: DeqWeights, h: int, tied: bool) -> np.ndarray:
    if tied:
        return weights.W
    return _stream(weights.seed, "W", h).standard_normal((weights.n, weights.n))


def _forward_stack(weights: DeqWeights, x: np.ndarray, d: int, tied: bool):
    """g^(0..d) and the activation-derivative masks of each layer."""
    p = weights.params
    act, dact = _act_pair(p)
    scale = np.sqrt(p.sigma_w_sq / weights.n)
    inj = _injection(weights, x)
    g = np.zeros(weights.n)
    gs = [g]
    masks = []
    for h in range(1, d + 1):
        pre = scale * (_layer_W(weights, h, tied) @ g) + inj
        masks.append(dact(pre))
        g = act(pre)
        gs.append(g)
    return gs, masks


def _backward_stack(weights: DeqWeights, masks, d: int, tied: bool):
    """delta^(h) = df/d(pre-activation h), for h = 1..d."""
    p = weights.params
    scale = np.sqrt(p.sigma_w_sq / weights.n)
    s = np.sqrt(p.sigma_v_sq / weights.n) * weights.v
    deltas = [None] * d
    for h in range(d, 0, -1):
        deltas[h - 1] = masks[h - 1] * s
        if h > 1:
            s = scale * (_layer_W(weights, h, tied).T @ deltas[h - 1])
    return deltas


def finite_depth_empirical_ntk(
    weights: DeqWeights,
    x: np.ndarray,
    y: np.ndarray,
    d: int,
    tied: bool = False,
) -> float:
    """Gradient inner product of the depth-d unrolled network.

    The untied variant draws fresh per-layer recurrent weights from the
    seed's layer streams and sums per-layer inner products; the tied
    variant differentiates through the shared weights (cross-layer terms
    included), so it approaches the implicit-gradient value as d grows.
    """
    if d < 1:
        raise ValueError("depth must be >= 1")
    p = weights.params
    gx, mx = _forward_stack(weights, x, d, tied)
    gy, my = _forward_stack(weights, y, d, tied)
    dx = _backward_stack(weights, mx, d, tied)
    dy = _backward_stack(weights, my, d, tied)

    Gx = np.stack(gx[:-1])  # g^(h-1), h=1..d
    Gy = np.stack(gy[:-1])
    Dx = np.stack(dx)
    Dy = np.stack(dy)
    if tied:
        gram_g = Gx @ Gy.T
        gram_d = Dx @ Dy.T
        w_term = (p.sigma_w_sq / weights.n) * float(np.sum(gram_d * gram_g))
        su = Dx.sum(axis=0) @ Dy.sum(axis=0)
    else:
        w_term = (p.sigma_w_sq / weights.n) * float(
            np.sum((Dx * Dy).sum(axis=1) * (Gx * Gy).sum(axis=1))
        )
        su = float((Dx * Dy).sum())
    u_term = p.sigma_u_sq * float(su) * float(x @ y)
    b_term = p.sigma_b_sq * float(su)
    v_term = (p.sigma_v_sq / weights.n) * float(gx[-1] @ gy[-1])
    return w_term + u_term + b_term + v_term


def linear_resolvent_stats(
    weights: DeqWeights, x: np.ndarray, y: np.ndarray
) -> tuple[float, EmpiricalNtkBreakdown]:
    """Exact resolvent form of the linear network's kernel plus the
    normalized trace (1/n) tr(H^T H), where H = B^{-1} and B = I -
    sqrt(sigma_w_sq/n) W.

    H is never formed: the trace comes from the Cholesky factor of B^T B,
    and z_x, z_y and q = H^T c from one LU factorization of B.  B is
    invertible whenever 1 is not an eigenvalue of sqrt(sigma_w_sq/n) W; an
    exactly singular draw raises ``SingularityError``.
    """
    p = weights.params
    n = weights.n
    B = _shifted_identity(weights.W, p.sigma_w_sq)
    trace_term = _inverse_frobenius_sq(B) / n
    # dgetrf reports an exactly zero pivot through info (lu_factor only warns)
    lu, piv, info = scipy.linalg.lapack.dgetrf(B, overwrite_a=1)
    if info != 0:
        raise SingularityError(
            f"I - sqrt(sigma_w_sq/n) W is singular (zero pivot {info})"
        )

    inject = np.column_stack([_injection(weights, x), _injection(weights, y)])
    Z, _ = scipy.linalg.lapack.dgetrs(lu, piv, inject)
    q, _ = scipy.linalg.lapack.dgetrs(
        lu, piv, np.sqrt(p.sigma_v_sq / n) * weights.v, trans=1
    )
    pp = float(q @ q)
    zz = float(Z[:, 0] @ Z[:, 1])
    terms = EmpiricalNtkBreakdown(
        w_term=(p.sigma_w_sq / n) * pp * zz,
        u_term=p.sigma_u_sq * pp * float(x @ y),
        b_term=p.sigma_b_sq * pp,
        v_term=(p.sigma_v_sq / n) * zz,
    )
    return trace_term, terms


def unit_vec(m, seed):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(m)
    return v / np.linalg.norm(v)


class TestStreams:
    def test_deterministic_draws(self):
        a = make_weights(16, 5, seed=7, params=P)
        b = make_weights(16, 5, seed=7, params=P)
        assert np.array_equal(a.W, b.W)
        assert np.array_equal(a.U, b.U)
        assert np.array_equal(a.b, b.b)
        assert np.array_equal(a.v, b.v)

    def test_streams_differ_across_matrices_and_seeds(self):
        a = make_weights(16, 16, seed=7, params=P)
        c = make_weights(16, 16, seed=8, params=P)
        assert not np.array_equal(a.W, a.U)
        assert not np.array_equal(a.W, c.W)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_raw_normals_unscaled(self, seed):
        w = make_weights(64, 8, seed=seed, params=P)
        # entries are raw standard normals; variance scaling happens at use
        assert abs(np.std(w.W) - 1.0) < 0.15


class TestForward:
    def test_residual_below_tolerance(self):
        w = make_weights(128, 10, seed=0, params=P)
        state = deq_forward(w, unit_vec(10, 0), tol=1e-12)
        assert state.residual <= 1e-12

    def test_linear_forward_matches_resolvent(self):
        w = make_weights(64, 10, seed=1, params=P_LIN)
        x = unit_vec(10, 1)
        state = deq_forward(w, x, tol=1e-13)
        A = np.sqrt(P_LIN.sigma_w_sq / w.n) * w.W
        direct = np.linalg.solve(np.eye(w.n) - A, _injection(w, x))
        assert np.max(np.abs(state.z_star - direct)) <= 1e-10

    def test_nonconvergence_raises(self):
        big = KernelParams(sigma_w_sq=0.125, sigma_u_sq=0.875)
        w = make_weights(32, 4, seed=0, params=big)
        for max_iter in (2, 0):
            with pytest.raises(ConvergenceError):
                deq_forward(w, unit_vec(4, 0), tol=1e-10, max_iter=max_iter)

    @pytest.mark.parametrize("max_iter", [0, 1, 2, 5])
    @pytest.mark.parametrize("which", ["forward", "adjoint"])
    def test_nonconvergence_names_pass_residual_and_rate(self, which, max_iter):
        """The message carries the last residual as the last change and,
        once two exist, the ratio of the last two, both as an explicit-matrix
        iteration gives them."""
        w = make_weights(32, 4, seed=0, params=P)
        x = unit_vec(4, 0)
        A = np.sqrt(P.sigma_w_sq / w.n) * w.W
        inj = _injection(w, x)
        z = deq_forward(w, x, tol=1e-12).z_star
        act, dact = _act_pair(P)
        D = dact(A @ z + inj)
        c = np.sqrt(P.sigma_v_sq / w.n) * w.v
        if which == "forward":
            step, u = (lambda v: act(A @ v + inj)), act(inj)
        else:
            step, u = (lambda v: c + A.T @ (D * v)), c
        residuals = []
        for _ in range(max_iter):
            u, prev = step(u), u
            residuals.append(np.linalg.norm(u - prev) / (1.0 + np.linalg.norm(prev)))
        with pytest.raises(ConvergenceError) as err:
            if which == "forward":
                deq_forward(w, x, tol=1e-300, max_iter=max_iter)
            else:
                _adjoint_vector(w, z, x, tol=1e-300, max_iter=max_iter)
        message = str(err.value)
        assert message.startswith(f"{which} pass: 1 of 1 passes still moving after "
                                  f"{max_iter} iterations at tol=1e-300; ")
        shown = float(re.search(r"last change ([^,]+)", message).group(1))
        assert shown == pytest.approx(residuals[-1] if residuals else np.inf, rel=1e-3)
        rate = re.search(r"observed contraction (\S+)$", message)
        assert (rate is not None) == (max_iter >= 2), message
        if rate:
            assert float(rate.group(1)) == pytest.approx(
                residuals[-1] / residuals[-2], rel=1e-2)
        assert "may be too large" not in message

    @pytest.mark.parametrize("seed, activation, which", [
        (1, "normalized-relu", "forward"), (2, "normalized-relu", "forward"),
        (1, LINEAR, "adjoint"),
    ])
    def test_divergence_raises_naming_the_pass(self, seed, activation, which):
        """At sigma_w_sq = 0.9 and n = 32 these draws diverge.  Once ||z||^2
        overflows the residual reads 0 or nan, so without the finiteness
        check the pass would be returned as converged."""
        w = make_weights(32, 10, seed, KernelParams(0.9, 0.1, activation=activation))
        x = unit_vec(10, 0)
        with pytest.raises(ConvergenceError) as err:
            if which == "forward":
                deq_forward(w, x)
            else:
                _adjoint_vector(w, np.zeros(32), x)
        message = str(err.value)
        assert message.startswith(f"{which} pass: 1 of 1 passes still moving after ")
        assert f"first is the {which} pass, whose iterate or change is not finite" in message
        assert float(re.search(r"last change ([^,]+),", message).group(1)) > 1e-3
        assert "observed contraction" in message

    def test_forms_no_scaled_copy_of_w(self):
        import tracemalloc

        n = 1024
        w = make_weights(n, 10, seed=2, params=P)
        x = unit_vec(10, 2)
        tracemalloc.start()
        try:
            deq_forward(w, x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8 / 4, peak

    @pytest.mark.parametrize("params", [P, P_LIN])
    def test_matches_explicit_matrix_iteration(self, params):
        w = make_weights(256, 10, seed=3, params=params)
        x = unit_vec(10, 3)
        act = (lambda u: u) if params.activation == LINEAR else (
            lambda u: np.sqrt(2.0) * np.maximum(u, 0.0))
        A = np.sqrt(params.sigma_w_sq / w.n) * w.W
        inj = _injection(w, x)
        z, mapped = act(inj), act(A @ act(inj) + inj)
        while np.linalg.norm(mapped - z) / (1.0 + np.linalg.norm(z)) > 1e-10:
            z, mapped = mapped, act(A @ mapped + inj)
        # the state is the post-step iterate, the map value at the stop
        got = deq_forward(w, x).z_star
        assert np.linalg.norm(got - mapped) <= 1e-12 * np.linalg.norm(mapped)


class TestImplicitGradients:
    def _numeric_grad(self, weights, x, block, h=1e-6):
        """Central finite differences of the scalar output in a random
        direction of one weight block."""
        p = weights.params
        rng = np.random.default_rng(99)
        direction = rng.standard_normal(getattr(weights, block).shape)
        direction /= np.linalg.norm(direction)

        def output(delta):
            fields = {k: getattr(weights, k) for k in ("W", "U", "b", "v")}
            fields[block] = fields[block] + delta * direction
            wpert = DeqWeights(
                **fields, n=weights.n, m=weights.m, seed=weights.seed, params=p
            )
            z = deq_forward(wpert, x, tol=1e-13).z_star
            return float(np.sqrt(p.sigma_v_sq / weights.n) * (wpert.v @ z))

        return (output(h) - output(-h)) / (2 * h), direction

    def test_adjoint_matches_finite_differences(self):
        n, m = 32, 6
        w = make_weights(n, m, seed=3, params=P)
        x = unit_vec(m, 3)
        p = w.params
        z = deq_forward(w, x, tol=1e-13).z_star
        adj = _adjoint_vector(w, z, x)
        grads = {
            "W": np.sqrt(p.sigma_w_sq / n) * np.outer(adj, z),
            "U": np.sqrt(p.sigma_u_sq) * np.outer(adj, x),
            "b": np.sqrt(p.sigma_b_sq) * adj,
            "v": np.sqrt(p.sigma_v_sq / n) * z,
        }
        for block in ("W", "U", "v"):
            numeric, direction = self._numeric_grad(w, x, block)
            analytic = float(np.sum(grads[block] * direction))
            assert abs(numeric - analytic) <= 1e-4 * max(abs(analytic), 1e-12), block

    @pytest.mark.parametrize("activation", ["normalized-relu", LINEAR])
    @pytest.mark.parametrize("n", [64, 256, 1024])
    def test_adjoint_matches_dense_solve(self, n, activation):
        p = KernelParams(sigma_w_sq=0.5, sigma_u_sq=0.3, sigma_b_sq=0.2,
                         sigma_v_sq=2.0, activation=activation)
        m = 8
        w = make_weights(n, m, seed=n, params=p)
        x = unit_vec(m, n)
        z = deq_forward(w, x, tol=1e-13).z_star
        # dense oracle: p = D (I - A^T D)^{-1} c
        A = np.sqrt(p.sigma_w_sq / n) * w.W
        D = (A @ z + _injection(w, x) > 0).astype(float) * np.sqrt(2.0)
        if activation == LINEAR:
            D = np.ones(n)
        c = np.sqrt(p.sigma_v_sq / n) * w.v
        ref = D * np.linalg.solve(np.eye(n) - A.T * D, c)
        for tol, bound in ((1e-10, 1e-9), (1e-13, 1e-11)):
            got = _adjoint_vector(w, z, x, tol=tol)
            assert np.linalg.norm(got - ref) <= bound * np.linalg.norm(ref), tol

    def test_adjoint_nonconvergence_raises(self):
        w = make_weights(32, 4, seed=0, params=P)
        x = unit_vec(4, 0)
        z = deq_forward(w, x, tol=1e-12).z_star
        for max_iter in (2, 0):
            with pytest.raises(ConvergenceError, match="adjoint"):
                _adjoint_vector(w, z, x, tol=1e-10, max_iter=max_iter)

    def test_kernel_value_symmetry(self):
        w = make_weights(64, 8, seed=5, params=P)
        x, y = unit_vec(8, 5), unit_vec(8, 6)
        assert abs(ift_ntk_pair(w, x, y).total - ift_ntk_pair(w, y, x).total) <= 1e-10

    def test_breakdown_total(self):
        w = make_weights(64, 8, seed=5, params=P)
        bd = ift_ntk_pair(w, unit_vec(8, 5), unit_vec(8, 6))
        assert bd.total == bd.w_term + bd.u_term + bd.b_term + bd.v_term


class TestFiniteDepthUnrolled:
    def test_tied_deep_matches_implicit(self):
        w = make_weights(96, 8, seed=2, params=P)
        x, y = unit_vec(8, 2), unit_vec(8, 3)
        deep = finite_depth_empirical_ntk(w, x, y, d=200, tied=True)
        implicit = ift_ntk_pair(w, x, y).total
        assert abs(deep - implicit) <= 1e-9 * abs(implicit)

    def test_untied_deterministic(self):
        w = make_weights(48, 8, seed=4, params=P)
        x, y = unit_vec(8, 7), unit_vec(8, 8)
        a = finite_depth_empirical_ntk(w, x, y, d=12, tied=False)
        b = finite_depth_empirical_ntk(w, x, y, d=12, tied=False)
        assert a == b

    def test_depth_validation(self):
        w = make_weights(16, 4, seed=0, params=P)
        with pytest.raises(ValueError):
            finite_depth_empirical_ntk(w, unit_vec(4, 0), unit_vec(4, 1), d=0)


class TestLinearResolvent:
    def test_matches_implicit_gradients(self):
        w = make_weights(128, 10, seed=6, params=P_LIN)
        x, y = unit_vec(10, 9), unit_vec(10, 10)
        _, terms = linear_resolvent_stats(w, x, y)
        implicit = ift_ntk_pair(w, x, y, tol=1e-13)
        assert abs(terms.total - implicit.total) <= 1e-9 * abs(implicit.total)

    def test_width_convergence_to_closed_form(self):
        x, y = unit_vec(10, 11), unit_vec(10, 12)
        theory = float(theta_linear_deq(float(x @ y), P_LIN))
        errs = []
        for n in (128, 1024):
            vals = [
                linear_resolvent_stats(make_weights(n, 10, s, P_LIN), x, y)[1].total
                for s in range(8)
            ]
            errs.append(np.median(np.abs(np.array(vals) - theory) / abs(theory)))
        assert errs[1] < errs[0]

    def test_beyond_neumann_norm_matches_dense_solve(self):
        # at sw2 = 0.3 the operator norm of sqrt(sw2/n) W tends to 2 sqrt(0.3)
        # > 1 while the spectral radius stays near sqrt(0.3) < 1
        n, m = 256, 10
        p = KernelParams(
            sigma_w_sq=0.3, sigma_u_sq=0.6, sigma_b_sq=0.1, sigma_v_sq=2.0,
            activation=LINEAR,
        )
        w = make_weights(n, m, seed=3, params=p)
        x, y = unit_vec(m, 1), unit_vec(m, 2)
        trace, terms = linear_resolvent_stats(w, x, y)

        B = np.eye(n) - np.sqrt(p.sigma_w_sq / n) * w.W
        H = np.linalg.solve(B, np.eye(n))
        inject = lambda u: np.sqrt(p.sigma_u_sq) * (w.U @ u) + np.sqrt(p.sigma_b_sq) * w.b
        zz = float(np.linalg.solve(B, inject(x)) @ np.linalg.solve(B, inject(y)))
        q = np.linalg.solve(B.T, np.sqrt(p.sigma_v_sq / n) * w.v)
        expected = {
            "trace": float(np.sum(H * H)) / n,
            "w_term": (p.sigma_w_sq / n) * float(q @ q) * zz,
            "u_term": p.sigma_u_sq * float(q @ q) * float(x @ y),
            "b_term": p.sigma_b_sq * float(q @ q),
            "v_term": (p.sigma_v_sq / n) * zz,
        }
        got = {"trace": trace, **{k: getattr(terms, k) for k in expected if k != "trace"}}
        for key, ref in expected.items():
            assert np.isfinite(got[key])
            assert abs(got[key] - ref) <= 1e-10 * abs(ref), key

    def test_singular_draw_raises(self):
        n = 8
        w = make_weights(n, 2, seed=0, params=P_LIN)
        # sqrt(sw2/n) W = I makes the shifted matrix exactly zero
        eye = dataclasses.replace(w, W=np.sqrt(n / P_LIN.sigma_w_sq) * np.eye(n))
        with pytest.raises(SingularityError):
            linear_resolvent_stats(eye, unit_vec(2, 0), unit_vec(2, 1))

    @pytest.mark.parametrize("sw2", [1.0, 1.5, -0.2])
    def test_trace_rejects_sw2_before_drawing(self, sw2, monkeypatch):
        def fail(*args):
            raise AssertionError("W drawn")

        monkeypatch.setattr(empirical, "_stream", fail)
        with pytest.raises(DomainError, match="sigma_w_sq"):
            resolvent_trace(200, sw2, 0)

    def test_trace_near_limit(self):
        vals = [resolvent_trace(400, 0.125, seed) for seed in range(5)]
        assert abs(np.mean(vals) - 1.0 / 0.875) <= 0.02

    @pytest.mark.parametrize("sw2", [0.0, 0.25, 0.5, 0.9])
    def test_trace_matches_dense_inverse(self, sw2):
        n, seed = 300, 11
        W = make_weights(n, 1, seed, P).W
        H = np.linalg.inv(np.eye(n) - np.sqrt(sw2 / n) * W)
        ref = float(np.sum(H * H)) / n
        assert abs(resolvent_trace(n, sw2, seed) - ref) <= 1e-10 * ref

    def test_trace_rejects_squared_ill_conditioning(self):
        # B^T B squares cond(B): with singular values 1e-7 and [1, 2] the
        # Cholesky route is off by 5e-3, so it must raise; at 1e-3 it holds
        n = 50
        rng = np.random.default_rng(0)
        Q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
        Q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
        for smallest, ok in ((1e-3, True), (1e-7, False)):
            s = np.linspace(1.0, 2.0, n)
            s[0] = smallest
            B = np.ascontiguousarray((Q1 * s) @ Q2)
            if ok:
                exact = float(np.sum(1.0 / s**2))
                assert abs(_inverse_frobenius_sq(B) - exact) <= 1e-8 * exact
            else:
                with pytest.raises(SingularityError, match="ill-conditioned"):
                    _inverse_frobenius_sq(B)

    @pytest.mark.parametrize("sw2", [0.25, 0.5, 0.9])
    def test_spectrum_matches_squared_singular_values(self, sw2):
        n = 300
        p = KernelParams(sigma_w_sq=sw2, sigma_u_sq=1.0 - sw2)
        w = make_weights(n, 1, seed=5, params=p)
        B = np.eye(n) - np.sqrt(sw2 / n) * w.W
        ref = np.sort(np.linalg.svd(B, compute_uv=False) ** 2)
        got = empirical_spectrum(w)
        assert np.all(np.abs(got - ref) <= 1e-9 * ref)

    def test_spectrum_degenerate_at_zero_variance(self):
        p0 = KernelParams(sigma_w_sq=0.0, sigma_u_sq=1.0)
        w = make_weights(8, 2, seed=0, params=p0)
        assert np.max(np.abs(empirical_spectrum(w) - 1.0)) <= 1e-12
