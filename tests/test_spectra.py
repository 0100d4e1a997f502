import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from deqntk import ConvergenceError, DomainError, spectra
from deqntk.spectra import (
    density,
    density_table,
    integrate_inverse_eig,
    support_endpoints,
    write_density_csv,
    _transform_root,
)
from mp_oracles import mp_density


def _implicit_residual(g, lam, sigma_w_sq):
    """|1 - g ((1 - s g) lambda - 1/(1 - s g))|: the implicit equation
    multiplied through by g, so that its scale is 1 whatever the size of g."""
    d = 1.0 - sigma_w_sq * g
    return np.abs(1.0 - g * (d * lam - 1.0 / d))


class TestStieltjesRoot:
    @given(st.floats(0.05, 0.99), st.floats(1e-3, 1.0 - 1e-3))
    @settings(max_examples=80, deadline=None)
    def test_solves_implicit_equation(self, s, frac):
        lo, hi = support_endpoints(s)
        lam = np.array([lo + frac * (hi - lo)])
        g = 1.0 / _transform_root(lam, s)
        assert _implicit_residual(g, lam, s)[0] <= 1e-10
        # resolvent-trace convention: inside the support Im g < 0
        assert g[0].imag < 0.0

    # (edge, interior) bounds on |density - mp_density| over the largest
    # mp_density of the points: at least twice the largest error measured
    # over the two point sets below and two more with random interiors.
    # Edge points lie 1e-12 to 1e-1 of the width inside either edge, where
    # the density falls like the square root of the distance and rounding
    # in the discriminant is amplified.
    @pytest.mark.parametrize("s, edge_bound, interior_bound", [
        (1e-6, 3e-11, 2e-15),
        (0.1, 1.5e-10, 1e-15),
        (0.5, 5e-11, 1e-15),
        (0.9, 2e-11, 3e-16),
        (0.999, 1e-12, 3e-18),
    ])
    def test_density_matches_mpmath(self, s, edge_bound, interior_bound):
        lo, hi = support_endpoints(s)
        width = hi - lo
        for offsets, fracs in (
            (np.logspace(-12, -1, 12), np.linspace(0.05, 0.95, 19)),
            (3.0 * np.logspace(-12, -2, 11), 0.05 + 0.9 * (np.arange(18) + 0.5) / 18),
        ):
            edge = np.concatenate([lo + offsets * width, hi - offsets * width])
            interior = lo + fracs * width
            ref_edge = np.array([mp_density(x, s) for x in edge])
            ref_interior = np.array([mp_density(x, s) for x in interior])
            scale = max(ref_edge.max(), ref_interior.max())
            assert np.all(ref_edge > 0.0)
            assert np.abs(density(edge, s) - ref_edge).max() <= edge_bound * scale
            assert np.abs(density(interior, s) - ref_interior).max() <= interior_bound * scale


class TestDensity:
    def test_nonnegative_and_zero_outside_support(self):
        lo, hi = support_endpoints(0.5)
        inside = np.linspace(lo + 0.05, hi - 0.05, 20)
        assert all(density(x, 0.5) > 0 for x in inside)
        assert density(lo - 0.5, 0.5) <= 1e-8
        assert density(hi + 0.5, 0.5) <= 1e-8

    @given(st.floats(0.05, 0.99))
    @settings(max_examples=60, deadline=None)
    def test_edges_bound_the_density(self, s):
        lo, hi = support_endpoints(s)
        outside = density(np.array([lo * (1 - 1e-6), hi * (1 + 1e-6)]), s)
        inside = density(np.array([lo * (1 + 1e-4), hi * (1 - 1e-4)]), s)
        assert np.all(outside == 0.0)
        assert np.all(inside > 0.0)

    def test_mass_normalizes(self):
        for s in (0.25, 0.5, 0.75):
            lo, hi = support_endpoints(s)
            mass, _ = integrate.quad(lambda x: density(x, s), lo + 1e-6, hi - 1e-6,
                                     limit=200, epsabs=1e-9, epsrel=1e-9)
            assert abs(mass - 1.0) <= 2e-3

    @given(st.floats(0.01, 0.9))
    @settings(max_examples=40, deadline=None)
    def test_inverse_moment_closed_form(self, s):
        assert abs(integrate_inverse_eig(s) - 1.0 / (1.0 - s)) <= 1e-9

    def test_quadrature_budget_exhausted_raises(self, monkeypatch):
        monkeypatch.setattr(spectra, "_GC_MAX_NODES", 127)
        with pytest.raises(ConvergenceError, match="Gauss-Chebyshev"):
            integrate_inverse_eig(0.9)

    def test_support_widens_with_variance(self):
        spans = []
        for s in (0.25, 0.5, 0.75):
            lo, hi = support_endpoints(s)
            assert 0.0 < lo < 1.0 < hi
            spans.append(hi - lo)
        assert spans[0] < spans[1] < spans[2]

    def test_point_mass_at_zero_variance(self):
        assert support_endpoints(0.0) == (1.0, 1.0)
        assert integrate_inverse_eig(0.0) == 1.0
        assert np.all(density(np.array([0.5, 1.0, 2.0]), 0.0) == 0.0)
        table = density_table(0.0)
        assert table.grid.shape == (1, 2)
        assert np.array_equal(table.cdf([0.5, 1.0, 2.0]), [0.0, 1.0, 1.0])
        # a support of width ~1e-6 keeps its order
        assert np.all(np.diff(density_table(1e-13).grid[:, 0]) > 0)

    def test_domain_validation(self):
        with pytest.raises(DomainError):
            support_endpoints(1.0)
        with pytest.raises(DomainError):
            integrate_inverse_eig(0.95)
        with pytest.raises(DomainError):
            density(1.0, 1.0)
        with pytest.raises(DomainError):
            density(np.array([1.0, np.nan]), 0.5)


class TestTable:
    def test_cdf_monotone_and_normalized(self):
        table = density_table(0.5, num=400)
        assert (table.grid[0, 0], table.grid[-1, 0]) == table.support
        assert table.grid[0, 1] == table.grid[-1, 1] == 0.0
        pts = np.linspace(*table.support, 50)
        cdf = table.cdf(pts)
        assert np.all(np.diff(cdf) >= -1e-12)
        assert abs(cdf[0]) <= 0.01
        assert abs(cdf[-1] - 1.0) <= 0.01

    def test_csv_round_trip(self, tmp_path):
        table = density_table(0.25, num=50)
        path = tmp_path / "density.csv"
        write_density_csv(table, path)
        text = path.read_text().splitlines()
        assert text[0].startswith("# sigma_w_sq=0.25")
        assert text[1] == "lambda,density"
        back = np.loadtxt(path, delimiter=",", skiprows=2)
        assert np.array_equal(back, table.grid)
