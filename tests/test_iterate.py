"""The package's one fixed-point loop, `kernel._iterate`, and the one
`ConvergenceError` format of every solver that runs it: the Newton solve of
the covariance, both convolutional stages and the finite-width forward and
adjoint passes.  Each message is checked against an independent iteration
of the same map: closed-form dual activations, full P x Q x P x Q tensors
or explicit matrices."""
import dataclasses
import re

import numpy as np
import pytest

from deqntk import LINEAR, ConvergenceError, KernelParams, dual_activation, dual_activation_dot
from deqntk import conv, kernel
from deqntk.conv import (
    build_normalizer,
    cdeq_k_step,
    cdeq_sigma_fixed_point,
    patch_trace,
    pixel_inner_tensor,
    _cdeq_pairs,
    _tensor_diag,
)
from deqntk.empirical import _act_pair, _adjoint_vector, _injection, deq_forward, make_weights

MESSAGE = re.compile(
    r"(?P<stage>[^:]+): (?P<count>\d+ of \d+ [a-z ]+) still moving after "
    r"(?P<budget>\d+) iterations at tol=(?P<tol>\S+); first is (?P<first>.+), "
    r"last change (?P<change>[^,]+)(, observed contraction (?P<rate>\S+))?$"
)
P_NEWTON = KernelParams(sigma_w_sq=0.5, sigma_u_sq=0.5)
# d* = 0.5, so that the stops' gains relative to d* are not 1
P_CONV = KernelParams(sigma_w_sq=0.6, sigma_u_sq=0.2)
P_DEQ = KernelParams(sigma_w_sq=0.125, sigma_u_sq=0.875, sigma_v_sq=2.0)


def changes_of(step, state, budget):
    """The changes of ``budget`` steps of ``step``, which maps a state to
    (next state, change)."""
    out = []
    for _ in range(budget):
        state, change = step(state)
        out.append(change)
    return out


def newton_case(budget, monkeypatch):
    """Newton on F(u) = (1 - sw2) u - su2 (1 - x.y) + sw2 (k1 - rho) at a = 1."""
    monkeypatch.setattr(kernel, "_MAX_NEWTON_ITER", budget)
    sw2, su2, x = P_NEWTON.sigma_w_sq, P_NEWTON.sigma_u_sq, -0.5

    def step(u):
        rho = 1.0 - u
        f = (1.0 - sw2) * u - su2 * (1.0 - x) + sw2 * (dual_activation(rho) - rho)
        du = f / (1.0 - sw2 * dual_activation_dot(rho))
        return u - du, abs(du) / (u - du)

    return (lambda: kernel.theta_deq_grid(np.array([x]), P_NEWTON), "covariance Newton",
            kernel._STEP_TOL, "1 of 1 dots", "x.y = -0.5",
            changes_of(step, su2 * (1.0 - x) / (1.0 - sw2), budget))


def conv_images():
    rng = np.random.default_rng(21)
    x = rng.standard_normal((3, 5, 4, 2))
    return x / np.linalg.norm(x, axis=-1, keepdims=True)


def covariance_map(x, y, q, params):
    """(first covariance tensor, one covariance step) on full tensors."""
    norm = build_normalizer(x.shape[0], x.shape[1], q)
    ss = norm.s[:, :, None, None] * norm.s[None, None, :, :]
    K0 = pixel_inner_tensor(x, y)
    d = kernel._diag_fixed_point(params)
    return (d * patch_trace(K0, q) / ss,
            lambda S: patch_trace(cdeq_k_step(S, K0, params)[0], q) / ss)


def covariance_case(budget, monkeypatch):
    """The full-tensor covariance, whose change is the bound sw2 / ((1 - sw2)
    d*) times the max change over the tensor."""
    x, y = conv_images()[:2]
    start, update = covariance_map(x, y, 3, P_CONV)
    sw2, d = P_CONV.sigma_w_sq, kernel._diag_fixed_point(P_CONV)

    def step(S):
        new = update(S)
        return new, sw2 / ((1.0 - sw2) * d) * np.abs(new - S).max()

    return (lambda: cdeq_sigma_fixed_point(x, y, 3, P_CONV, tol=1e-12, max_iter=budget),
            "covariance fixed point", 1e-12, "1 of 1 image pairs", "images (0, 0)",
            changes_of(step, start, budget))


def kernel_case(budget, monkeypatch):
    """The slice kernel stage of pair (1, 2), whose change is the bound
    L (1 - sw2) / ((1 - L) d*) times the max change of the offset-0 slice.
    Each image repeats one pixel vector and the activation is linear, so
    the covariance is fixed from the start and stops at step 1 of the one
    budget."""
    params = dataclasses.replace(P_CONV, activation=LINEAR)
    pixels = np.array([[1.0, 0.0], [0.0, 1.0], [0.6, 0.8]])
    imgs = np.repeat(np.repeat(pixels[:, None, None], 5, axis=1), 4, axis=2)
    S, _ = covariance_map(imgs[1], imgs[2], 3, params)
    Kdot = cdeq_k_step(S, pixel_inner_tensor(imgs[1], imgs[2]), params)[1]
    L, sw2, d = _tensor_diag(Kdot).max(), params.sigma_w_sq, kernel._diag_fixed_point(params)
    ss = build_normalizer(5, 4, 3).s
    ss = ss[:, :, None, None] * ss[None, None, :, :]

    def step(T):
        new = Kdot * patch_trace(T, 3) / ss + S
        change = np.abs(_tensor_diag(new) - _tensor_diag(T)).max()
        return new, L * (1.0 - sw2) / ((1.0 - L) * d) * change

    return (lambda: _cdeq_pairs(imgs, imgs, [1], [2], 3, params, max_iter=budget),
            "kernel fixed point", conv._TOL, "1 of 1 image pairs", "images (1, 2)",
            changes_of(step, S, budget))


def pass_case(which):
    """A finite-width pass by explicit matrices; its change is the residual
    ||step(z) - z|| / (1 + ||z||)."""
    def case(budget, monkeypatch):
        w = make_weights(32, 4, seed=0, params=P_DEQ)
        x = np.eye(4)[0]
        A = np.sqrt(P_DEQ.sigma_w_sq / w.n) * w.W
        inj = _injection(w, x)
        act, dact = _act_pair(P_DEQ)
        z = deq_forward(w, x, tol=1e-12).z_star
        D, c = dact(A @ z + inj), np.sqrt(P_DEQ.sigma_v_sq / w.n) * w.v
        if which == "forward":
            def run():
                deq_forward(w, x, tol=1e-300, max_iter=budget)
            start, apply = act(inj), lambda v: act(A @ v + inj)
        else:
            def run():
                _adjoint_vector(w, z, x, tol=1e-300, max_iter=budget)
            start, apply = c, lambda v: c + A.T @ (D * v)

        def step(v):
            new = apply(v)
            return new, np.linalg.norm(new - v) / (1.0 + np.linalg.norm(v))

        return (run, f"{which} pass", 1e-300, "1 of 1 passes", f"the {which} pass",
                changes_of(step, start, budget))
    return case


CASES = {"newton": newton_case, "covariance": covariance_case, "kernel": kernel_case,
         "forward": pass_case("forward"), "adjoint": pass_case("adjoint")}


@pytest.mark.parametrize("solver", sorted(CASES))
def test_one_convergence_error_format(solver, monkeypatch):
    # the rate shows exactly when two or more steps ran
    for budget in (1, 2, 3):
        run, stage, tol, count, first, changes = CASES[solver](budget, monkeypatch)
        with pytest.raises(ConvergenceError) as err:
            run()
        got = MESSAGE.fullmatch(str(err.value))
        assert got is not None, str(err.value)
        assert (got["stage"], got["count"], got["first"]) == (stage, count, first)
        assert (int(got["budget"]), float(got["tol"])) == (budget, tol)
        assert float(got["change"]) == pytest.approx(changes[-1], rel=1e-3)
        assert (got["rate"] is not None) == (budget >= 2), str(err.value)
        if got["rate"] is not None:
            assert float(got["rate"]) == pytest.approx(changes[-1] / changes[-2], rel=1e-2)


# One scripted change per entry (row) and step (column): entry 0 stops at
# step 1, entry 1's change turns NaN at step 3 and entry 2 keeps moving.
SCRIPT = np.array([[1e-9, 1e-9, 1e-9],
                   [0.4, 0.1, np.nan],
                   [0.5, 0.25, 0.2]])


def scripted(calls):
    """A step whose iterate counts the steps and whose change is read from
    the rows of ``SCRIPT`` that are still in the batch."""
    def step(x, rows):
        calls.append(len(x))
        return x + 1.0, rows[:, int(x[0])]
    return step


def test_loop_raises_at_once_on_a_non_finite_change():
    calls = []
    with pytest.raises(ConvergenceError) as err:
        kernel._iterate(np.zeros(3), scripted(calls), (SCRIPT,), 1e-6, 10, "scripted",
                        "3 entries", lambda k: f"entry {k}")
    # no step runs after the NaN, and entry 0 left the batch at step 1
    assert calls == [3, 2, 2]
    assert str(err.value) == (
        "scripted: 1 of 3 entries still moving after 2 iterations at tol=1e-06; first is "
        "entry 1, whose iterate or change is not finite, last change 1.000e-01, "
        "observed contraction 0.25")


def test_loop_budget_names_the_first_live_entry():
    with pytest.raises(ConvergenceError) as err:
        kernel._iterate(np.zeros(3), scripted([]), (SCRIPT,), 1e-6, 2, "scripted",
                        "3 entries", lambda k: f"entry {k}")
    assert str(err.value) == (
        "scripted: 2 of 3 entries still moving after 2 iterations at tol=1e-06; first is "
        "entry 1, last change 1.000e-01, observed contraction 0.25")
