"""Finite-width equilibrium networks and their empirical tangent kernels.

The network is z = act(sqrt(sigma_w_sq/n) W z + sigma_u U x + sigma_b b)
with readout sqrt(sigma_v_sq/n) v.z.  Weights are stored as raw standard
normals; variance scalings are applied at use-sites.  Forward passes solve
the fixed point by plain iteration, gradients come from the implicit
function theorem, and the linear-activation case additionally exposes the
exact resolvent quantities used by the random-matrix experiments.

Randomness is counter-based (Philox) with one sub-stream per weight matrix
derived from ``SeedSequence([seed, matrix_id, layer])``, so any layer of the
untied variant can be re-drawn lazily and trials parallelize reproducibly.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import ConvergenceError, SingularityError
from .params import LINEAR, KernelParams

_MATRIX_IDS = {"W": 0, "U": 1, "b": 2, "v": 3}


def _stream(seed: int, matrix: str, layer: int = 0) -> np.random.Generator:
    ss = np.random.SeedSequence([int(seed), _MATRIX_IDS[matrix], int(layer)])
    return np.random.Generator(np.random.Philox(ss))


@dataclass(frozen=True)
class DeqWeights:
    """One finite-width weight draw (raw standard normal entries)."""

    W: np.ndarray  # n x n
    U: np.ndarray  # n x m
    b: np.ndarray  # n
    v: np.ndarray  # n
    n: int
    m: int
    seed: int
    params: KernelParams


@dataclass(frozen=True)
class EquilibriumState:
    z_star: np.ndarray
    residual: float
    iterations: int


@dataclass(frozen=True)
class EmpiricalNtkBreakdown:
    """Per-parameter-block decomposition of an empirical kernel value."""

    w_term: float
    u_term: float
    b_term: float
    v_term: float

    @property
    def total(self) -> float:
        return self.w_term + self.u_term + self.b_term + self.v_term


def make_weights(n: int, m: int, seed: int, params: KernelParams) -> DeqWeights:
    """Draw a weight set from the seeded Philox streams."""
    return DeqWeights(
        W=_stream(seed, "W").standard_normal((n, n)),
        U=_stream(seed, "U").standard_normal((n, m)),
        b=_stream(seed, "b").standard_normal(n),
        v=_stream(seed, "v").standard_normal(n),
        n=n,
        m=m,
        seed=seed,
        params=params,
    )


def _act_pair(params: KernelParams):
    if params.activation == LINEAR:
        return (lambda u: u), (lambda u: np.ones_like(u))
    root2 = np.sqrt(2.0)
    return (
        lambda u: root2 * np.maximum(u, 0.0),
        lambda u: root2 * (u > 0.0).astype(float),
    )


def _injection(weights: DeqWeights, x: np.ndarray) -> np.ndarray:
    p = weights.params
    inj = np.sqrt(p.sigma_u_sq) * (weights.U @ x)
    if p.sigma_b_sq > 0:
        inj = inj + np.sqrt(p.sigma_b_sq) * weights.b
    return inj


def deq_forward(
    weights: DeqWeights,
    x: np.ndarray,
    tol: float = 1e-10,
    max_iter: int = 10000,
) -> EquilibriumState:
    """Solve the forward fixed point by plain iteration.

    The map value act(A z + inj) that measures an iterate's residual is the
    next iterate, so each iteration costs one matvec.
    """
    act, _ = _act_pair(weights.params)
    A = np.sqrt(weights.params.sigma_w_sq / weights.n) * weights.W
    inj = _injection(weights, x)
    mapped = act(A @ np.zeros(weights.n) + inj)
    residual = np.inf
    for it in range(1, max_iter + 1):
        z = mapped
        mapped = act(A @ z + inj)
        residual = np.linalg.norm(mapped - z) / (1.0 + np.linalg.norm(z))
        if residual <= tol:
            return EquilibriumState(z_star=z, residual=float(residual), iterations=it)
    raise ConvergenceError(
        f"forward pass did not reach tol={tol} in {max_iter} iterations "
        f"(residual {residual:.3e}); sigma_w_sq may be too large for this draw"
    )


def _adjoint_vector(weights: DeqWeights, z_star: np.ndarray, x: np.ndarray):
    """p = D (I - A^T D)^{-1} c with D = diag(act'(pre-activation))."""
    p = weights.params
    _, dact = _act_pair(p)
    A = np.sqrt(p.sigma_w_sq / weights.n) * weights.W
    pre = A @ z_star + _injection(weights, x)
    D = dact(pre)
    c = np.sqrt(p.sigma_v_sq / weights.n) * weights.v
    M = np.eye(weights.n) - A.T * D  # A^T @ diag(D)
    try:
        sol = scipy.linalg.solve(M, c)
    except scipy.linalg.LinAlgError as exc:
        raise ConvergenceError("singular adjoint system: non-contractive draw") from exc
    return D * sol


def ift_ntk_pair(
    weights: DeqWeights, x: np.ndarray, y: np.ndarray, tol: float = 1e-10
) -> EmpiricalNtkBreakdown:
    """Empirical kernel of the equilibrium network via implicit gradients."""
    p = weights.params
    zx = deq_forward(weights, x, tol=tol).z_star
    zy = deq_forward(weights, y, tol=tol).z_star
    px = _adjoint_vector(weights, zx, x)
    py = _adjoint_vector(weights, zy, y)
    pp = float(px @ py)
    zz = float(zx @ zy)
    return EmpiricalNtkBreakdown(
        w_term=(p.sigma_w_sq / weights.n) * pp * zz,
        u_term=p.sigma_u_sq * pp * float(x @ y),
        b_term=p.sigma_b_sq * pp,
        v_term=(p.sigma_v_sq / weights.n) * zz,
    )


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
    normalized trace (1/n) tr(H^T H) with H = (I - sqrt(sigma_w_sq/n) W)^{-1}.

    H exists whenever 1 is not an eigenvalue of sqrt(sigma_w_sq/n) W; an
    exactly singular draw raises ``SingularityError``.
    """
    p = weights.params
    n = weights.n
    A = np.sqrt(p.sigma_w_sq / n) * weights.W
    try:
        H = scipy.linalg.inv(np.eye(n) - A)
    except scipy.linalg.LinAlgError as exc:
        raise SingularityError("I - sqrt(sigma_w_sq/n) W is singular") from exc
    trace_term = float(np.sum(H * H)) / n

    zx = np.sqrt(p.sigma_u_sq) * (H @ (weights.U @ x))
    zy = np.sqrt(p.sigma_u_sq) * (H @ (weights.U @ y))
    if p.sigma_b_sq > 0:
        zx = zx + np.sqrt(p.sigma_b_sq) * (H @ weights.b)
        zy = zy + np.sqrt(p.sigma_b_sq) * (H @ weights.b)
    q = H.T @ (np.sqrt(p.sigma_v_sq / n) * weights.v)
    pp = float(q @ q)
    zz = float(zx @ zy)
    terms = EmpiricalNtkBreakdown(
        w_term=(p.sigma_w_sq / n) * pp * zz,
        u_term=p.sigma_u_sq * pp * float(x @ y),
        b_term=p.sigma_b_sq * pp,
        v_term=(p.sigma_v_sq / n) * zz,
    )
    return trace_term, terms


def resolvent_trace(n: int, sigma_w_sq: float, seed: int) -> float:
    """(1/n) tr(H^T H) for one seeded draw of W."""
    W = _stream(seed, "W").standard_normal((n, n))
    B = np.eye(n) - np.sqrt(sigma_w_sq / n) * W
    H = scipy.linalg.inv(B)
    return float(np.sum(H * H)) / n


def empirical_spectrum(weights: DeqWeights) -> np.ndarray:
    """Ascending eigenvalues of (I - sqrt(sigma_w_sq/n) W)^T (same)."""
    B = (
        np.eye(weights.n)
        - np.sqrt(weights.params.sigma_w_sq / weights.n) * weights.W
    )
    s = np.linalg.svd(B, compute_uv=False)
    return np.sort(s * s)
