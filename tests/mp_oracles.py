"""High-precision oracles for the dense kernels and the limiting spectral
density, in mpmath.

Each kernel oracle takes one inner product as a float and returns the
kernel value, the readout layer included, rounded to a float.  They follow
the textbook formulas in the correlation, with none of the reformulations
of ``deqntk.kernel``.  The density oracle takes the cubic's roots from a
general polynomial solver, not from Cardano's formula.
"""
import pytest


def _mp(dps):
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = dps
    return mp


def _duals(mp, rho, activation):
    """(k0, k1) at correlation rho."""
    if activation == "linear":
        return mp.mpf(1), rho
    k0 = (mp.pi - mp.acos(rho)) / mp.pi
    return k0, (mp.sqrt(1 - rho * rho) + mp.pi * k0 * rho) / mp.pi


def mp_finite_depth_state(dot, depth, p, dps=50):
    """(rho, sigma_dot, theta) of one pair by the layer recursion at ``dps``
    digits: the correlation entering the readout, sigma_w_sq k0 of the last
    interior layer (0 at depth 0) and the kernel."""
    mp = _mp(dps)
    sw2, su2, sb2 = (mp.mpf(v) for v in (p.sigma_w_sq, p.sigma_u_sq, p.sigma_b_sq))
    dot = mp.mpf(float(dot))
    diag, cov, theta, sigma_dot = mp.mpf(1), dot, dot, mp.mpf(0)
    for layer in range(depth + 1):
        k0, k1 = _duals(mp, cov / diag, p.activation)
        if layer == depth:
            out = mp.mpf(p.sigma_v_sq) * (k0 * theta + diag * k1)
            return float(cov / diag), float(sigma_dot), float(out)
        sigma_dot = sw2 * k0
        cov = sw2 * diag * k1 + su2 * dot + sb2
        theta = sigma_dot * theta + cov
        diag = sw2 * diag + su2 + sb2


def mp_finite_depth(dot, depth, p, dps=50):
    """Finite-depth kernel of one pair by the layer recursion at ``dps``
    digits."""
    return mp_finite_depth_state(dot, depth, p, dps)[2]


def mp_deq(dot, p, dps=60):
    """Depth-limit kernel of one pair at ``dps`` digits: the covariance
    fixed point by bisection (the map minus s is decreasing in s), then the
    readout at that point."""
    mp = _mp(dps)
    sw2, su2, sb2 = (mp.mpf(v) for v in (p.sigma_w_sq, p.sigma_u_sq, p.sigma_b_sq))
    a = (su2 + sb2) / (1 - sw2)

    def duals(s):
        return _duals(mp, max(-1, min(1, s / a)), p.activation)

    inject = su2 * mp.mpf(float(dot)) + sb2
    lo, hi = -a, a
    for _ in range(4 * dps):
        s = (lo + hi) / 2
        if sw2 * a * duals(s)[1] + inject - s > 0:
            lo = s
        else:
            hi = s
    k0, k1 = duals(s)
    return float(mp.mpf(p.sigma_v_sq) * (k0 * s / (1 - sw2 * k0) + a * k1))


def mp_density(lam, s, dps=50):
    """Limiting spectral density of B^T B at ``lam`` for sigma_w_sq = ``s``:
    Im h / (pi |h|^2) for the root h = 1/g with Im h > 0 of h^3 - (lam + s -
    1) h^2 + 2 s lam h - s^2 lam, found by ``polyroots`` at ``dps`` digits;
    0 where all three roots are real."""
    mp = _mp(dps)
    lam, s = mp.mpf(float(lam)), mp.mpf(float(s))
    roots = mp.polyroots([1, -(lam + s - 1), 2 * s * lam, -s * s * lam],
                         maxsteps=200, extraprec=4 * dps)
    h = max(roots, key=mp.im)
    return float(mp.im(h) / (mp.pi * abs(h) ** 2)) if mp.im(h) > 0 else 0.0
