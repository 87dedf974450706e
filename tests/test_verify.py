import numpy as np
import pytest

from subbandeq.equilibrium import (
    NonConvergence,
    SolverConfig,
    external_potential,
    solve_equilibrium,
)
from subbandeq.grid import Grid
from subbandeq.occupancy import OccupancyModel
from subbandeq.poisson import solve_poisson
from subbandeq.rearrange import (
    RadialGrid,
    band_densities,
    pair_free_energy,
    rearrange_energy_increasing,
    rearrange_occupation_decreasing,
)
from subbandeq.schrodinger import band_sum_density, profile_kinetic_energy, sine_modes
from subbandeq.verify import (
    check_energy_agreement,
    check_kinetic_interpolation,
    check_mu_bound,
    check_perturbation,
    check_rearrangement_invariance,
    check_subband_structure,
    check_uniqueness,
    check_weighted_l1,
    grid_consistent_base,
    mode_rotation,
    occupation_bump,
    random_test_pair,
    run_verification,
)

GRID = Grid(6, 6, 24)
VGRID = RadialGrid.uniform(3.0, 96)
MODEL_T0 = OccupancyModel(T=0.0, p=2.0)


@pytest.fixture(scope="module")
def solved():
    cfg = SolverConfig(
        M_target=1.0,
        model=OccupancyModel(T=0.2, p=2.0),
        grid=GRID,
        vext_kind="zwell",
        vext_amplitude=8.0,
        fp_tol=1e-10,
    )
    state, trace = solve_equilibrium(cfg)
    assert trace.converged
    return cfg, state


@pytest.fixture(scope="module")
def base(solved):
    cfg, state = solved
    vext = external_potential(cfg)
    return grid_consistent_base(state, vext, GRID, cfg.model)


class TestRandomTestPair:
    @pytest.mark.parametrize("seed", [42, 51])
    def test_modes_match_per_slice_qr_loop(self, seed):
        # reference: one draw and one QR per slice, in C order over the slices
        rng = np.random.default_rng(seed)
        chi = np.empty((*GRID.lateral_shape, 4, GRID.nz - 1))
        for i in range(GRID.ny1):
            for k in range(GRID.ny2):
                q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
                chi[i, k] = q @ sine_modes(4, GRID)
        assert np.array_equal(random_test_pair(GRID, 4, VGRID, seed).chi, chi)

    def test_more_modes_than_interior_nodes_rejected(self):
        # nz = 4 has 3 interior nodes, where sine mode 4 vanishes
        with pytest.raises(ValueError):
            random_test_pair(Grid(4, 4, 4), 4, VGRID, seed=0)


class TestWeightedL1:
    def test_zero_occupations(self):
        pair = random_test_pair(GRID, 3, VGRID, seed=0)
        pair = rearrange_energy_increasing(pair, GRID)
        zero = type(pair)(f=np.zeros_like(pair.f), chi=pair.chi, vgrid=pair.vgrid)
        r = check_weighted_l1(zero, GRID, MODEL_T0)
        assert r.passed and r.lhs == 0.0

    def test_single_band_sine_mode(self):
        # one band on the ground sine mode: middle term is ~1.5x the first
        pair = random_test_pair(GRID, 1, VGRID, seed=1)
        z = GRID.z_nodes()[1:-1]
        chi = np.broadcast_to(
            np.sqrt(2.0) * np.sin(np.pi * z), pair.chi.shape
        ).copy()
        pair = type(pair)(f=pair.f, chi=chi, vgrid=pair.vgrid)
        r = check_weighted_l1(pair, GRID, MODEL_T0)
        assert r.passed
        k = profile_kinetic_energy(chi, GRID)[0, 0, 0]
        assert r.details["middle"] == pytest.approx(3.0 / np.pi**2 * k * r.lhs, rel=1e-10)
        assert r.details["middle"] >= 1.45 * r.lhs

    def test_randomized_family(self):
        for seed in range(12):
            pair = random_test_pair(GRID, 4, VGRID, seed=seed)
            r = check_weighted_l1(rearrange_energy_increasing(pair, GRID), GRID, MODEL_T0)
            assert r.passed

    def test_unsorted_raises(self):
        pair = rearrange_energy_increasing(random_test_pair(GRID, 3, VGRID, 2), GRID)
        reversed_pair = type(pair)(
            f=pair.f[:, :, ::-1, :], chi=pair.chi[:, :, ::-1, :], vgrid=pair.vgrid,
        )
        with pytest.raises(ValueError):
            check_weighted_l1(reversed_pair, GRID, MODEL_T0)


class TestKineticInterpolation:
    def test_zero_pair(self):
        pair = random_test_pair(GRID, 3, VGRID, seed=3)
        zero = type(pair)(f=np.zeros_like(pair.f), chi=pair.chi, vgrid=pair.vgrid)
        r = check_kinetic_interpolation(zero, 2.0, GRID)
        assert r.ratio == 0.0 and r.passed

    def test_s1_mass_identity(self):
        pair = random_test_pair(GRID, 4, VGRID, seed=4)
        r = check_kinetic_interpolation(pair, 1.0, GRID)
        assert r.passed
        assert r.details["mass_identity_error"] <= 1e-12

    @pytest.mark.parametrize("s", [2.0, 2.5])
    def test_ratio_family_stable(self, s):
        ratios = []
        for seed in range(12):
            pair = random_test_pair(GRID, 4, VGRID, seed=seed + 40)
            r = check_kinetic_interpolation(pair, s, GRID)
            assert r.passed and np.isfinite(r.ratio)
            ratios.append(r.ratio)
        assert max(ratios) / min(ratios) < 1e3

    def test_invalid_exponent(self):
        pair = random_test_pair(GRID, 3, VGRID, seed=5)
        with pytest.raises(ValueError):
            check_kinetic_interpolation(pair, 3.0, GRID)


class TestGridBase:
    def test_base_is_self_consistent(self, base):
        # potential equals the Poisson solve of the pair density, mass on target
        assert base.mass == pytest.approx(1.0, abs=1e-9)
        assert np.all(np.diff(base.pair.f, axis=2) <= 1e-15)
        _assert_pair_quadrature(base)

    def test_zero_temperature_base(self):
        cfg = SolverConfig(
            M_target=1.0, model=MODEL_T0, grid=GRID, vext_kind="zwell",
            vext_amplitude=8.0, fp_tol=1e-10,
        )
        state, trace = solve_equilibrium(cfg)
        vext = external_potential(cfg)
        b = grid_consistent_base(state, vext, GRID, MODEL_T0)
        assert b.mass == pytest.approx(1.0, abs=1e-9)
        assert abs(b.mu - state.mu) <= 1e-3
        _assert_pair_quadrature(b)

    def test_unconverged_base_raises(self, solved, monkeypatch):
        monkeypatch.setattr("subbandeq.verify._BASE_MAX_STEPS", 1)
        cfg, state = solved
        with pytest.raises(NonConvergence, match="did not re-converge"):
            grid_consistent_base(state, external_potential(cfg), GRID, cfg.model)


def _assert_pair_quadrature(base):
    """F and U of the base are those of its own pair, to rounding."""
    F, _ = pair_free_energy(base.pair, GRID, base.model, vext=base.vext)
    assert base.F == pytest.approx(F, rel=1e-12)
    U = solve_poisson(band_sum_density(band_densities(base.pair), base.pair.chi), GRID)
    assert np.max(np.abs(base.U - U)) <= 1e-12 * np.max(np.abs(U))


class TestCoercivity:
    def test_identity_perturbation(self, base):
        pert = rearrange_occupation_decreasing(base.pair)
        r, _ = check_perturbation(base, pert)
        assert r.passed
        assert abs(r.lhs) <= 1e-9 * (1 + abs(base.F))
        assert abs(r.rhs) <= 1e-9 * (1 + abs(base.F))

    @pytest.mark.parametrize("eps", [1e-1, 1e-2])
    def test_occupation_bumps(self, base, eps):
        for seed in range(5):
            pert = occupation_bump(base, eps, seed=seed)
            r, _ = check_perturbation(base, pert)
            assert r.passed, (eps, seed, r)

    def test_mode_rotations(self, base):
        for angle in (0.05, 0.1, 0.2):
            pert = mode_rotation(base, angle)
            r, _ = check_perturbation(base, pert)
            assert r.passed
            assert r.lhs > 0.0

    def test_unsorted_rejected(self, base):
        pert = occupation_bump(base, 1e-1, seed=0)
        broken = type(pert)(f=pert.f[:, :, ::-1, :], chi=pert.chi, vgrid=pert.vgrid)
        with pytest.raises(ValueError):
            check_perturbation(base, broken)


class TestStabilityGap:
    def test_identity_gap_zero(self, base):
        pert = rearrange_occupation_decreasing(base.pair)
        _, r = check_perturbation(base, pert)
        assert r.passed and r.lhs <= 1e-12

    def test_epsilon_family(self, base):
        for eps in (1e-1, 1e-2, 1e-3):
            for seed in range(3):
                pert = occupation_bump(base, eps, seed=seed + 7)
                _, r = check_perturbation(base, pert)
                assert r.passed, (eps, seed, r)

    def test_gap_shrinks_with_perturbation(self, base):
        gaps = []
        for eps in (1e-1, 1e-2, 1e-3):
            pert = occupation_bump(base, eps, seed=11)
            gaps.append(check_perturbation(base, pert)[1].lhs)
        assert gaps[0] > gaps[1] > gaps[2]

    def test_mass_preserving_delta_is_energy_gap(self, base):
        # rotations keep f, hence the mass; delta collapses to |F_pert - F|
        pert = mode_rotation(base, 0.1)
        _, r = check_perturbation(base, pert)
        assert r.passed
        assert r.details["delta"] == pytest.approx(
            r.rhs / (1.0 + base.mu), rel=1e-12
        )


class TestStateChecks:
    def test_mu_bound_on_converged(self, solved):
        cfg, state = solved
        r = check_mu_bound(state, cfg.model, cfg.M_target)
        assert r.passed and 0 < r.lhs <= r.rhs

    def test_mu_bound_uncoupled_closed_form(self):
        # flat single band: mu = lam1 + M/(2 pi A), bound = M/(pi A) + 2 lam1 + ...
        from subbandeq.equilibrium import make_state
        from subbandeq.schrodinger import free_mode_eigenvalue, solve_slices

        g = Grid(10, 10, 32)
        spec = solve_slices(np.zeros((10, 10, g.nz - 1)), 2, g)
        lam1 = free_mode_eigenvalue(1, g)
        M = 1.0
        A = g.lateral_area()
        mu = lam1 + M / (2 * np.pi * A)
        zero = np.zeros(g.volume_shape)
        state = make_state(spec, mu, g, MODEL_T0, zero, U=zero)
        r = check_mu_bound(state, MODEL_T0, M)
        assert r.passed
        hand_bound = 4.0 / M * (M**2 / (4 * np.pi * A) + lam1 * M)
        assert r.rhs == pytest.approx(hand_bound, rel=1e-9)

    def test_subband_structure(self, solved):
        _, state = solved
        r = check_subband_structure(state)
        assert r.passed and r.details["min_band_gap"] > 1e-10

    def test_mu_bound_small_mass_trivial(self):
        # as M shrinks, F ~ lambda_1 M so the bound (4/M) F tends to
        # 4 lambda_1 while mu tends to lambda_1: satisfied with a 4x margin
        cfg = SolverConfig(M_target=1e-5, grid=Grid(6, 6, 16), fp_tol=1e-9)
        state, trace = solve_equilibrium(cfg)
        assert trace.converged
        r = check_mu_bound(state, cfg.model, cfg.M_target)
        assert r.passed
        assert r.ratio == pytest.approx(0.25, abs=1e-4)

    def test_energy_agreement(self, solved):
        _, state = solved
        assert check_energy_agreement(state).passed


class TestUniqueness:
    def test_three_initializations(self):
        cfg = SolverConfig(
            M_target=1.0, grid=Grid(6, 6, 16), vext_kind="zwell",
            vext_amplitude=8.0, fp_tol=1e-11,
        )
        r = check_uniqueness(cfg)
        assert r.passed

    def test_unconverged_run_raises(self):
        cfg = SolverConfig(M_target=1.0, grid=Grid(6, 6, 16), vext_kind="zwell", max_outer=1)
        with pytest.raises(NonConvergence, match="uniqueness run"):
            check_uniqueness(cfg)


class TestRearrangementInvariance:
    def test_random_pairs(self):
        model = OccupancyModel(T=0.5, p=2.0)
        for seed in range(6):
            pair = random_test_pair(GRID, 4, VGRID, seed=seed + 60)
            r = check_rearrangement_invariance(pair, GRID, model)
            assert r.passed, r.details


class TestRunVerification:
    def test_full_run_passes_and_is_deterministic(self):
        cfg = SolverConfig(
            M_target=0.5, grid=Grid(6, 6, 16), vext_kind="zwell",
            vext_amplitude=4.0, fp_tol=1e-10,
        )
        reports = run_verification(cfg, seed=42, n_pairs=3, n_perturbations=3)
        assert all(r.passed for r in reports), [
            (r.name, r.passed) for r in reports
        ]
        again = run_verification(cfg, seed=42, n_pairs=3, n_perturbations=3)
        assert [r.as_dict() for r in reports] == [r.as_dict() for r in again]

    def test_coarsest_z_grid_passes(self):
        # nz = 4: the test pairs draw nz - 1 = 3 modes, not 4
        cfg = SolverConfig(M_target=1.0, grid=Grid(4, 4, 4))
        reports = run_verification(cfg, seed=42, n_pairs=2, n_perturbations=2)
        assert all(r.passed for r in reports), [(r.name, r.passed) for r in reports]

    @pytest.mark.parametrize("counts", [{"n_pairs": 0}, {"n_perturbations": 0}, {"seed": -1}])
    def test_counts_below_one_rejected_before_the_solve(self, counts):
        # max_outer = 1 cannot converge, so the solve would raise RuntimeError:
        # the ValueError shows the counts are checked first
        cfg = SolverConfig(M_target=0.5, grid=Grid(4, 4, 16), vext_kind="zwell", max_outer=1)
        with pytest.raises(RuntimeError):
            run_verification(cfg, n_pairs=1, n_perturbations=1)
        (name,) = counts
        with pytest.raises(ValueError, match=name):
            run_verification(cfg, **counts)
