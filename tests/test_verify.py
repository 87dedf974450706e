import dataclasses
import math

import numpy as np
import pytest

import subbandeq.verify as verify
from subbandeq.equilibrium import (
    NonConvergence,
    SeededDraws,
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
    pair_mass,
    rearrange_energy_increasing,
    rearrange_occupation_decreasing,
)
from subbandeq.schrodinger import band_sum_density, profile_kinetic_energy, sine_modes, zero_extend
from subbandeq.verify import (
    CheckReport,
    _aggregate,
    check_energy_agreement,
    check_kinetic_interpolation,
    check_mu_bound,
    check_perturbation,
    check_rearrangement_invariance,
    check_subband_structure,
    check_uniqueness,
    check_weighted_l1,
    choose_J_max,
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
    return grid_consistent_base(state, cfg)


class TestRandomTestPair:
    @pytest.mark.parametrize("seed", [42, 51])
    def test_modes_match_per_slice_qr_loop(self, seed):
        # reference: one draw and one QR per slice, in C order over the slices
        draws = SeededDraws(seed)
        chi = np.empty((*GRID.lateral_shape, 4, GRID.nz - 1))
        for i in range(GRID.ny1):
            for k in range(GRID.ny2):
                q, _ = np.linalg.qr(draws.normals((4, 4)))
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

    def test_unsorted_pair_gets_the_sorted_report(self):
        # the bound holds for the energy-sorted arrangement, which the check
        # forms itself: a band-reversed pair is reported as its rearrangement
        pair = rearrange_energy_increasing(random_test_pair(GRID, 3, VGRID, 2), GRID)
        reversed_pair = type(pair)(
            f=pair.f[:, :, ::-1, :], chi=pair.chi[:, :, ::-1, :], vgrid=pair.vgrid,
        )
        r = check_weighted_l1(reversed_pair, GRID, MODEL_T0)
        assert r.passed
        assert r.as_dict() == check_weighted_l1(pair, GRID, MODEL_T0).as_dict()


class TestKineticInterpolation:
    def test_zero_pair(self):
        pair = random_test_pair(GRID, 3, VGRID, seed=3)
        zero = type(pair)(f=np.zeros_like(pair.f), chi=pair.chi, vgrid=pair.vgrid)
        r = check_kinetic_interpolation(zero, GRID)
        assert r.ratio == 0.0 and r.passed

    def test_ratio_family_stable(self):
        ratios = []
        for seed in range(12):
            pair = random_test_pair(GRID, 4, VGRID, seed=seed + 40)
            r = check_kinetic_interpolation(pair, GRID)
            assert r.passed and np.isfinite(r.ratio)
            ratios.append(r.ratio)
        assert max(ratios) / min(ratios) < 1e3

    def test_seeded_pair_against_explicit_sums(self):
        # s = 2: ||rho||_q with q = (5s - 3)/(3s - 1) = 7/5, and the Holder step
        # sum_j ||f_j||_2 <= (sum_j j^-2)^(1/2) (sum_j j^2 ||f_j||_1)^(1/2)
        pair = random_test_pair(GRID, 4, VGRID, seed=11)
        r = check_kinetic_interpolation(pair, GRID)
        dA, w = GRID.hy1 * GRID.hy2, VGRID.weights
        rho = np.zeros(GRID.volume_shape)
        holder_lhs, weighted_l1, inverse_squares = 0.0, 0.0, 0.0
        for j in range(pair.J):
            f_j = pair.f[:, :, j, :]
            rho_j = np.sum(f_j * w, axis=-1)
            rho[:, :, 1:-1] += rho_j[..., None] * pair.chi[:, :, j, :] ** 2
            holder_lhs += math.sqrt(np.sum(f_j**2 * w) * dA)
            weighted_l1 += (j + 1) ** 2 * np.sum(rho_j) * dA
            inverse_squares += (j + 1) ** -2
        q = 7.0 / 5.0
        norm = np.sum(rho**q * dA * GRID.z_weights()) ** (1.0 / q)
        assert r.lhs == pytest.approx(norm, rel=1e-12)
        assert r.details["holder_lhs"] == pytest.approx(holder_lhs, rel=1e-12)
        assert r.details["holder_rhs"] == pytest.approx(
            math.sqrt(inverse_squares) * math.sqrt(weighted_l1), rel=1e-12
        )
        assert r.passed and holder_lhs < r.details["holder_rhs"]


class TestGridBase:
    def test_base_is_self_consistent(self, base):
        # potential equals the Poisson solve of the pair density, mass on target
        assert pair_mass(base.pair, GRID) == pytest.approx(1.0, abs=1e-9)
        assert np.all(np.diff(base.pair.f, axis=2) <= 1e-15)
        _assert_pair_quadrature(base)

    def test_base_keeps_the_perturbation_bands(self, solved, base):
        # the solve itself needs J_active + 1 bands; the base keeps the
        # unoccupied ones the occupation bumps move mass into
        _, state = solved
        assert state.spectrum.J == state.j_active + 1
        assert base.pair.J == base.state.spectrum.J == choose_J_max(state.mu)

    def test_zero_temperature_base(self):
        cfg = SolverConfig(
            M_target=1.0, model=MODEL_T0, grid=GRID, vext_kind="zwell",
            vext_amplitude=8.0, fp_tol=1e-10,
        )
        state, trace = solve_equilibrium(cfg)
        b = grid_consistent_base(state, cfg)
        assert pair_mass(b.pair, GRID) == pytest.approx(1.0, abs=1e-9)
        assert abs(b.state.mu - state.mu) <= 1e-3
        _assert_pair_quadrature(b)

    def test_unconverged_base_raises(self, solved, monkeypatch):
        # one predicted step re-converges the base to 1e-9; no step reaches a
        # tolerance below the rounding floor of the map residual
        monkeypatch.setattr("subbandeq.verify._BASE_MAX_STEPS", 1)
        monkeypatch.setattr("subbandeq.verify._BASE_FP_TOL", 1e-30)
        cfg, state = solved
        with pytest.raises(NonConvergence, match="did not re-converge"):
            grid_consistent_base(state, cfg)

    def test_base_solves_with_the_main_external_potential(self, solved, monkeypatch):
        # the base re-solves cfg's minimization: its config keeps the zwell
        # confinement, not the default vext_kind "zero"
        cfg, state = solved
        configs, fixed_point = [], verify.fixed_point

        def capturing(U0, base_cfg, min_bands=1):
            configs.append(base_cfg)
            return fixed_point(U0, base_cfg, min_bands)

        monkeypatch.setattr(verify, "fixed_point", capturing)
        base = grid_consistent_base(state, cfg)
        (captured,) = configs
        assert external_potential(captured).tobytes() == external_potential(cfg).tobytes()
        assert base.cfg is cfg


def _assert_pair_quadrature(base):
    """F and U of the base are those of its own pair, to rounding."""
    F, _ = pair_free_energy(base.pair, GRID, base.cfg.model, vext=external_potential(base.cfg))
    assert base.state.energy.total_direct == pytest.approx(F, rel=1e-12)
    U = solve_poisson(band_sum_density(band_densities(base.pair), zero_extend(base.pair.chi) ** 2), GRID)
    assert np.max(np.abs(base.state.U - U)) <= 1e-12 * np.max(np.abs(U))


class TestCoercivity:
    def test_identity_perturbation(self, base):
        pert = rearrange_occupation_decreasing(base.pair)
        r, _ = check_perturbation(base, pert)
        assert r.passed
        F = base.state.energy.total_direct
        assert abs(r.lhs) <= 1e-9 * (1 + abs(F))
        assert abs(r.rhs) <= 1e-9 * (1 + abs(F))

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

    def test_unsorted_pert_gets_the_sorted_reports(self, base):
        # the chain holds for the occupation-sorted arrangement, which the
        # check forms itself: reversed occupations report as the sorted pert
        pert = rearrange_occupation_decreasing(occupation_bump(base, 1e-1, seed=0))
        reversed_pert = type(pert)(f=pert.f[:, :, ::-1, :], chi=pert.chi, vgrid=pert.vgrid)
        reports = check_perturbation(base, reversed_pert)
        assert all(r.passed for r in reports)
        assert [r.as_dict() for r in reports] == [r.as_dict() for r in check_perturbation(base, pert)]


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
            r.rhs / (1.0 + base.state.mu), rel=1e-12
        )


class TestStateChecks:
    def test_mu_bound_on_converged(self, solved):
        cfg, state = solved
        r = check_mu_bound(state, cfg.model, cfg.M_target)
        assert r.passed and 0 < r.lhs <= r.rhs

    def test_mu_bound_uncoupled_closed_form(self):
        # flat single band: mu = lam1 + M/(2 pi A), bound = M/(pi A) + 2 lam1 + ...
        from subbandeq.equilibrium import make_state, occupy_modes
        from subbandeq.schrodinger import free_mode_eigenvalue, solve_slices

        g = Grid(10, 10, 32)
        spec = solve_slices(np.zeros((10, 10, g.nz - 1)), 2, g)
        lam1 = free_mode_eigenvalue(1, g)
        M = 1.0
        A = g.lateral_area()
        mu = lam1 + M / (2 * np.pi * A)
        zero = np.zeros(g.volume_shape)
        rho_j, _ = occupy_modes(spec.lam, mu, zero_extend(spec.chi) ** 2, g, MODEL_T0)
        state = make_state(spec, mu, rho_j, zero, g, MODEL_T0, zero)  # field decoupled
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

    @pytest.mark.parametrize("T", [0.2, 0.0])
    def test_reports_equal_under_the_reference_kernels(self, T, monkeypatch):
        # the rearrangement kernels put back to take_along_axis, -np.sort(-f)
        # and the stable argsort, with no carried kinetic energies: the same
        # reports, bit for bit (T = 0 gives long runs of tied occupations)
        cfg = SolverConfig(
            M_target=0.5, model=OccupancyModel(T=T, p=2.0), grid=Grid(4, 4, 16),
            vext_kind="zwell", vext_amplitude=4.0,
        )
        counts = {"seed": 7, "n_pairs": 3, "n_perturbations": 3}
        fast = [r.as_dict() for r in run_verification(cfg, **counts)]

        def energy_sort(pair, grid):
            order = np.argsort(profile_kinetic_energy(pair.chi, grid), axis=2, kind="stable")
            f = np.take_along_axis(pair.f, order[..., None], axis=2)
            chi = np.take_along_axis(pair.chi, order[..., None], axis=2)
            return dataclasses.replace(pair, f=f, chi=chi, k=None)

        def joint(pair, order):
            f_perm = np.take_along_axis(pair.f, order, axis=2)
            onehot = order[..., None] == np.arange(pair.J)
            return np.einsum("abjv,abjvi,v->abi", f_perm, onehot, pair.vgrid.weights)

        # verify binds the rearrange names it calls, so they are replaced there
        monkeypatch.setattr(verify, "rearrange_energy_increasing", energy_sort)
        monkeypatch.setattr(
            verify, "rearrange_occupation_decreasing",
            lambda pair: dataclasses.replace(pair, f=-np.sort(-pair.f, axis=2)),
        )
        monkeypatch.setattr(
            verify, "occupation_sort_permutation",
            lambda pair: np.argsort(-pair.f, axis=2, kind="stable"),
        )
        monkeypatch.setattr(verify, "joint_band_densities", joint)
        for name in ("random_test_pair", "occupation_bump"):
            made = getattr(verify, name)
            monkeypatch.setattr(
                verify, name, lambda *a, made=made: dataclasses.replace(made(*a), k=None)
            )
        assert fast == [r.as_dict() for r in run_verification(cfg, **counts)]

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

    def test_non_integral_seed_rejected_before_the_solve(self):
        # as above: the TypeError comes before the RuntimeError of the solve
        cfg = SolverConfig(M_target=0.5, grid=Grid(4, 4, 16), vext_kind="zwell", max_outer=1)
        with pytest.raises(TypeError):
            run_verification(cfg, seed=1.5)
        with pytest.raises(RuntimeError):
            run_verification(cfg, seed=np.int64(1), n_pairs=1, n_perturbations=1)


def test_ratio_of_a_positive_lhs_over_zero_is_inf():
    assert verify._ratio(1e-300, 0.0) == math.inf
    assert verify._ratio(0.0, 0.0) == 0.0


class TestAggregate:
    @pytest.mark.parametrize("bad_ratio", [float("inf"), float("nan")], ids=["inf", "nan"])
    def test_failing_case_reported_over_passing_ones(self, bad_ratio):
        ok = CheckReport("c", True, 1e-6, 1.0, 1e-6, {"case": "ok"})
        bad = CheckReport("c", False, 1.0, 0.0, bad_ratio, {"case": "bad"})
        for cases in ([ok, bad], [bad, ok], [ok, bad, ok]):
            report = _aggregate("family", cases)
            assert report.passed is False
            assert (report.lhs, report.rhs) == (1.0, 0.0)
            assert report.ratio == bad_ratio or (math.isnan(bad_ratio) and math.isnan(report.ratio))
            assert report.details == {"n_cases": len(cases), "worst_case_details": {"case": "bad"}}

    def test_nonfinite_ratio_ranks_above_finite_ones(self):
        cases = [CheckReport("c", True, 2.0, 1.0, 2.0), CheckReport("c", True, 0.0, 0.0, math.nan),
                 CheckReport("c", True, 5.0, 1.0, 5.0)]
        assert math.isnan(_aggregate("family", cases).ratio)

    def test_passing_family_reports_its_largest_ratio(self):
        cases = [CheckReport("c", True, 1.0, 4.0, 0.25), CheckReport("c", True, 1.0, 2.0, 0.5),
                 CheckReport("c", True, 2.0, 4.0, 0.5)]
        report = _aggregate("family", cases)
        assert report.passed is True and (report.lhs, report.ratio) == (1.0, 0.5)
