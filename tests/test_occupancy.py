import numpy as np
import pytest

import subbandeq.occupancy as occupancy
from subbandeq.grid import Grid
from subbandeq.occupancy import (
    OccupancyModel,
    profiles_by_quadrature,
    solve_mu,
    subband_mass,
)


def flat_levels(grid, levels):
    """Constant-in-y synthetic eigenvalues, shape (ny1, ny2, len(levels))."""
    lam = np.empty(grid.lateral_shape + (len(levels),))
    lam[:] = np.asarray(levels)
    return lam


def random_levels(grid, J, seed):
    rng = np.random.default_rng(seed)
    ny1, ny2 = grid.lateral_shape
    base = np.sort(rng.uniform(1.0, 30.0, size=J))
    lam = base[None, None, :] + 0.5 * rng.standard_normal((ny1, ny2, J))
    lam = np.sort(lam, axis=2)
    gaps = np.diff(lam, axis=2)
    lam[:, :, 1:] += np.cumsum(np.maximum(0.05 - gaps, 0.0), axis=2)
    return lam


class TestOccupationLaw:
    def test_zero_temperature_indicator(self):
        m = OccupancyModel(T=0.0)
        assert m.occupancy(-0.5) == 0.0
        assert m.occupancy(0.7) == 1.0
        assert m.occupancy(0.0) == 1.0

    def test_power_family_hand_inverted(self):
        # beta(s) = s^2/2, beta'(s) = s, so occ(s) = min(s/T, 1)
        m = OccupancyModel(T=0.5, p=2.0)
        assert m.occupancy(0.25) == pytest.approx(0.5, abs=1e-15)
        assert m.occupancy(0.5) == pytest.approx(1.0)
        assert m.occupancy(2.0) == 1.0
        assert m.occupancy(-1e-12) == 0.0

    def test_range_and_monotonicity(self):
        s = np.linspace(-2, 5, 301)
        # p = 1.002: (s/T)^500 overflows unless s/T is clamped before the power
        for model in (OccupancyModel(T=0.0), OccupancyModel(T=0.3, p=1.5),
                      OccupancyModel(T=1.0, p=3.0), OccupancyModel(T=0.2, p=1.002)):
            vals = model.occupancy(s)
            assert np.all(vals >= 0.0) and np.all(vals <= 1.0)
            assert np.all(np.diff(vals) >= -1e-15)

    def test_invalid_models(self):
        with pytest.raises(ValueError):
            OccupancyModel(T=-0.1)
        with pytest.raises(ValueError):
            OccupancyModel(T=1.0, p=1.0)


class TestProfiles:
    def test_zero_temperature_values(self):
        m = OccupancyModel(T=0.0, p=2.0)
        assert m.profile_g(0.8) == pytest.approx(0.8)
        assert m.profile_g(-1.0) == 0.0
        assert m.profile_k(1.0) == pytest.approx(0.5)
        assert m.profile_b(1.0) == pytest.approx(0.5)  # beta(1) = 1/p
        assert m.profile_k(-2.0) == 0.0 and m.profile_b(-2.0) == 0.0

    def test_spec_point_values(self):
        m = OccupancyModel(T=0.5, p=2.0)
        assert m.profile_g(0.25) == pytest.approx(0.0625, abs=1e-14)
        assert m.profile_k(0.25) == pytest.approx(0.25**3 / (0.5 * 6.0), abs=1e-14)

    def test_vanish_on_nonpositive_gap(self):
        for model in (OccupancyModel(T=0.0), OccupancyModel(T=0.4, p=2.5)):
            a = np.array([-3.0, -1e-9, 0.0])
            assert np.all(model.profile_g(a) == 0.0)
            assert np.all(model.profile_k(a) == 0.0)
            assert np.all(model.profile_b(a) == 0.0)

    def test_monotonicity_and_k_bound(self):
        a = np.linspace(-1.0, 10.0, 200)
        for model in (OccupancyModel(T=0.0), OccupancyModel(T=0.1, p=1.5),
                      OccupancyModel(T=1.0, p=3.0)):
            g = model.profile_g(a)
            assert np.all(np.diff(g) >= -1e-14)
            pos = a > 0
            assert np.all(model.profile_k(a[pos]) <= a[pos] * g[pos] + 1e-14)

    @pytest.mark.parametrize("T", [0.0, 0.1, 1.0])
    @pytest.mark.parametrize("p", [1.001, 1.5, 2.0, 3.0])
    def test_closed_forms_match_quadrature(self, T, p):
        model = OccupancyModel(T=T, p=p)
        for a in np.linspace(-1.0, 10.0, 23):
            g, k, b = profiles_by_quadrature(model, float(a))
            assert model.profile_g(a) == pytest.approx(g, abs=1e-10)
            assert model.profile_k(a) == pytest.approx(k, abs=1e-10)
            assert model.profile_b(a) == pytest.approx(b, abs=1e-10)


class TestMass:
    def test_zero_below_bottom(self):
        g = Grid(6, 6, 16)
        lam = flat_levels(g, [2.0, 5.0])
        assert subband_mass(1.9, lam, g, OccupancyModel(T=0.0)) == 0.0

    def test_flat_level_closed_form(self):
        # single reachable level at T = 0: M = 2 pi A (mu - c)+
        g = Grid(10, 10, 16)
        c = 2.0
        lam = flat_levels(g, [c, 50.0])
        model = OccupancyModel(T=0.0)
        area = g.lateral_area()
        for mu in (2.5, 3.7):
            expected = 2.0 * np.pi * area * (mu - c)
            assert subband_mass(mu, lam, g, model) == pytest.approx(expected, rel=1e-13)

    def test_monotone_in_mu(self):
        g = Grid(6, 6, 16)
        lam = random_levels(g, 4, seed=3)
        model = OccupancyModel(T=0.3, p=2.0)
        mus = np.linspace(0.0, 40.0, 50)
        masses = [subband_mass(m, lam, g, model) for m in mus]
        assert all(b >= a for a, b in zip(masses, masses[1:]))

    def test_zero_temperature_formula_random_spectra(self):
        # explicit ramp formula, same quadrature on both sides
        g = Grid(8, 8, 16)
        model = OccupancyModel(T=0.0)
        for seed in range(20):
            lam = random_levels(g, 5, seed)
            mu = float(np.median(lam))
            direct = 2.0 * np.pi * np.sum(np.maximum(mu - lam, 0.0)) * g.hy1 * g.hy2
            assert subband_mass(mu, lam, g, model) == pytest.approx(
                direct, rel=1e-12, abs=1e-300
            )


class TestSolveMu:
    def test_flat_level_inversion(self):
        g = Grid(10, 10, 16)
        c = 2.0
        lam = flat_levels(g, [c, 50.0])
        model = OccupancyModel(T=0.0)
        M = 1.3
        mu = solve_mu(M, lam, g, model)
        assert mu == pytest.approx(c + M / (2.0 * np.pi * g.lateral_area()), rel=1e-9)

    @pytest.mark.parametrize("T,p", [(0.0, 2.0), (0.4, 2.0), (0.2, 1.5)])
    def test_round_trip(self, T, p):
        g = Grid(6, 6, 16)
        model = OccupancyModel(T=T, p=p)
        for seed in range(5):
            lam = random_levels(g, 4, seed)
            mu0 = float(np.min(lam)) + 1.7
            M = subband_mass(mu0, lam, g, model)
            mu = solve_mu(M, lam, g, model)
            assert mu == pytest.approx(mu0, abs=1e-9 * max(1.0, mu0))

    def test_small_mass_limit(self):
        g = Grid(6, 6, 16)
        lam = random_levels(g, 3, seed=9)
        model = OccupancyModel(T=0.0)
        bottom = float(np.min(lam[:, :, 0]))
        mu = solve_mu(1e-9, lam, g, model)
        assert bottom < mu < bottom + 1e-3

    def test_step_like_mass_costs_at_most_bisection_plus_a_constant(self, monkeypatch):
        # one flat band whose profile jumps from 0 to 1 across a window of
        # width w at gap c: secant steps gain nothing on the flat parts, and
        # ITP must then not fall behind bisection by more than a constant
        g = Grid(6, 6, 16)
        lo = 3.0
        lam = flat_levels(g, [lo])

        class Step:
            T = 0.0

            def __init__(self, c, w):
                self.c, self.w = c, w

            def profile_g(self, a):
                a = np.asarray(a, dtype=float)
                return np.where(a > 0.0, 0.5 * (1.0 + np.tanh((a - self.c) / self.w)), 0.0)

        def bisection_count(M, model):
            # the doubling bracket and bisection this solver replaced
            mass = lambda mu: subband_mass(mu, lam, g, model)
            tol = occupancy.MU_REL_TOL * M
            hi, n = lo + 1.0, 1
            while mass(hi) < M:
                hi, n = lo + 2.0 * (hi - lo), n + 1
            a, b = lo, hi
            while True:
                mid, n = 0.5 * (a + b), n + 1
                m = mass(mid)
                if abs(m - M) <= tol:
                    return n
                a, b = (mid, b) if m < M else (a, mid)

        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return subband_mass(*args, **kwargs)

        ours, theirs = 0, 0
        for c in (0.3, 1.7, 6.1, 13.3):
            for w in (1e-3 * c, 1e-2 * c, 1e-1 * c):
                for frac in (0.2, 0.5, 0.8):
                    model = Step(c, w)
                    M = 2.0 * np.pi * g.lateral_area() * frac
                    n_bisect = bisection_count(M, model)
                    with monkeypatch.context() as mp:
                        mp.setattr(occupancy, "subband_mass", counted)
                        calls.clear()
                        mu = solve_mu(M, lam, g, model)
                    assert abs(subband_mass(mu, lam, g, model) - M) <= occupancy.MU_REL_TOL * M
                    # two bracketing trials, ITP's lag of N0 + 1 halvings, the last midpoint
                    assert len(calls) <= n_bisect + occupancy._ITP_N0 + 4, (c, w, frac)
                    ours, theirs = ours + len(calls), theirs + n_bisect
        assert ours < theirs

    def test_errors(self):
        g = Grid(6, 6, 16)
        lam = flat_levels(g, [2.0])
        with pytest.raises(ValueError):
            solve_mu(0.0, lam, g, OccupancyModel(T=0.0))
        for bad in (np.full((6, 6, 2), np.nan), lam[:, :, 0], lam[:5]):
            with pytest.raises(ValueError):
                solve_mu(1.0, bad, g, OccupancyModel(T=0.0))
