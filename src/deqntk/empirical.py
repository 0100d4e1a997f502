"""Finite-width equilibrium networks and their empirical tangent kernels.

The network is z = act(sqrt(sigma_w_sq/n) W z + sigma_u U x + sigma_b b)
with readout sqrt(sigma_v_sq/n) v.z.  Weights are stored as raw standard
normals; variance scalings are applied at use-sites.  Forward passes solve
the fixed point by plain iteration, gradients come from the implicit
function theorem with the adjoint fixed point solved the same way, and the
linear-activation case additionally exposes the exact resolvent quantities
used by the random-matrix experiments.

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

#: Largest 1-norm condition estimate of the Cholesky factor R of B^T B that
#: the resolvent trace accepts.  Forming B^T B squares the condition number
#: of B; on a 50 x 50 test matrix the trace was off by 1.8e-7 at an estimate
#: of 4.6e6 and by 1.6e-5 at 1.5e7.  Random draws at sigma_w_sq <= 0.999
#: and n <= 1000 measured at most 3e5 (errors <= 7e-11).
_MAX_FACTOR_COND = 1e7


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
    next iterate, so each iteration costs one matvec.  A = sqrt(sigma_w_sq /
    n) W is applied as a scaled matvec with W, never formed.
    """
    act, _ = _act_pair(weights.params)
    scale = np.sqrt(weights.params.sigma_w_sq / weights.n)
    inj = _injection(weights, x)
    mapped = act(inj)
    residual = np.inf
    for it in range(1, max_iter + 1):
        z = mapped
        mapped = act(scale * (weights.W @ z) + inj)
        residual = np.linalg.norm(mapped - z) / (1.0 + np.linalg.norm(z))
        if residual <= tol:
            return EquilibriumState(z_star=z, residual=float(residual), iterations=it)
    raise ConvergenceError(
        f"forward pass did not reach tol={tol} in {max_iter} iterations "
        f"(residual {residual:.3e}); sigma_w_sq may be too large for this draw"
    )


def _adjoint_vector(
    weights: DeqWeights,
    z_star: np.ndarray,
    x: np.ndarray,
    tol: float = 1e-10,
    max_iter: int = 10000,
) -> np.ndarray:
    """p = D u, where u = c + A^T (D u) and D = diag(act'(pre-activation)).

    u is found by plain iteration with the forward pass's residual rule.
    The map's Jacobian A^T D is the transpose of the forward Jacobian D A
    at the fixed point, so it contracts whenever the forward pass does.
    """
    p = weights.params
    _, dact = _act_pair(p)
    scale = np.sqrt(p.sigma_w_sq / weights.n)
    D = dact(scale * (weights.W @ z_star) + _injection(weights, x))
    c = np.sqrt(p.sigma_v_sq / weights.n) * weights.v
    mapped = c
    residual = np.inf
    for _ in range(max_iter):
        u = mapped
        mapped = c + scale * (weights.W.T @ (D * u))
        residual = np.linalg.norm(mapped - u) / (1.0 + np.linalg.norm(u))
        if residual <= tol:
            return D * mapped
    raise ConvergenceError(
        f"adjoint pass did not reach tol={tol} in {max_iter} iterations "
        f"(residual {residual:.3e}); sigma_w_sq may be too large for this draw"
    )


def ift_ntk_pair(
    weights: DeqWeights, x: np.ndarray, y: np.ndarray, tol: float = 1e-10
) -> EmpiricalNtkBreakdown:
    """Empirical kernel of the equilibrium network via implicit gradients."""
    p = weights.params
    zx = deq_forward(weights, x, tol=tol).z_star
    zy = deq_forward(weights, y, tol=tol).z_star
    px = _adjoint_vector(weights, zx, x, tol=tol)
    py = _adjoint_vector(weights, zy, y, tol=tol)
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


def _shifted_identity(W: np.ndarray, sigma_w_sq: float, out=None) -> np.ndarray:
    """B = I - sqrt(sigma_w_sq/n) W; ``out=W`` builds it in W's memory."""
    n = W.shape[0]
    B = np.multiply(-np.sqrt(sigma_w_sq / n), W, out=out)
    B.ravel()[:: n + 1] += 1.0
    return B


def _gram_upper(B: np.ndarray) -> np.ndarray:
    """B^T B by ``dsyrk``: the upper triangle of a Fortran-ordered array.
    B^T of a C-ordered B is Fortran-ordered, so BLAS reads B in place."""
    return scipy.linalg.blas.dsyrk(1.0, B.T, trans=0, lower=0)


def _inverse_frobenius_sq(B: np.ndarray) -> float:
    """||B^{-1}||_F^2 = ||R^{-1}||_F^2, where B^T B = R^T R (Cholesky).

    The Gram, its factor and the factor's inverse share one n x n buffer;
    no inverse of B is formed.  A failed factorization, or a factor whose
    condition estimate exceeds ``_MAX_FACTOR_COND`` (the squared condition
    number would cost accuracy), raises ``SingularityError``.
    """
    R, info = scipy.linalg.lapack.dpotrf(
        _gram_upper(B), lower=0, clean=1, overwrite_a=1
    )
    if info == 0:
        rcond, _ = scipy.linalg.lapack.dtrcon(R)
        if rcond * _MAX_FACTOR_COND < 1.0:
            raise SingularityError(
                f"I - sqrt(sigma_w_sq/n) W is too ill-conditioned for the "
                f"Cholesky trace (reciprocal condition estimate {rcond:.3e} "
                f"of the factor of B^T B)"
            )
        R, info = scipy.linalg.lapack.dtrtri(R, lower=0, overwrite_c=1)
    if info != 0:
        raise SingularityError(
            f"I - sqrt(sigma_w_sq/n) W is singular to working precision "
            f"(Cholesky/triangular inverse info={info})"
        )
    flat = R.ravel(order="K")
    return float(flat @ flat)


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


def resolvent_trace(n: int, sigma_w_sq: float, seed: int) -> float:
    """(1/n) tr(H^T H) = (1/n) ||B^{-1}||_F^2 for one seeded draw of W."""
    W = _stream(seed, "W").standard_normal((n, n))
    return _inverse_frobenius_sq(_shifted_identity(W, sigma_w_sq, out=W)) / n


def empirical_spectrum(weights: DeqWeights) -> np.ndarray:
    """Ascending eigenvalues of B^T B, B = I - sqrt(sigma_w_sq/n) W."""
    B = _shifted_identity(weights.W, weights.params.sigma_w_sq)
    return scipy.linalg.eigvalsh(
        _gram_upper(B), lower=False, overwrite_a=True, check_finite=False
    )
