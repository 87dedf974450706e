import dataclasses

import numpy as np
import pytest

from subbandeq.equilibrium import (
    SeededDraws,
    SolverConfig,
    external_potential,
    fixed_point,
    make_state,
    occupy_modes,
    random_smooth_potential,
    solve_equilibrium,
)
from subbandeq.grid import Grid, l2_norm_volume
from subbandeq.occupancy import OccupancyModel, subband_mass
from subbandeq.poisson import gradient_distance, dirichlet_energy, solve_poisson
from subbandeq.schrodinger import (
    SubbandSpectrum,
    band_sum_density,
    free_mode_eigenvalue,
    solve_slices,
)
from subbandeq.verify import check_subband_structure, choose_J_max


def free_spectrum(grid, J):
    return solve_slices(np.zeros((grid.ny1, grid.ny2, grid.nz - 1)), J, grid)


def occupied(spec, mu, grid, model):
    """occupy_modes at the spectrum's eigenpairs: rho_j, the total density and U."""
    rho_j, U = occupy_modes(spec.lam, mu, spec.chi, grid, model)
    return rho_j, band_sum_density(rho_j, spec.chi), U


def state_at(spec, mu, grid, model, vext, U=None):
    """make_state on occupy_modes at spec and mu; a given U replaces its potential (field decoupled)."""
    rho_j, _, U_closed = occupied(spec, mu, grid, model)
    return make_state(spec, mu, rho_j, U_closed if U is None else U, grid, model, vext)


def _patch_map(monkeypatch, g, G, D, log=None):
    """Replace the outer cycle by U -> G(U) with dual D(U) (arrays in, float out).

    The state's free energy, which only the trace records, is D(U) too.
    log, if given, receives (U_in, D) of every evaluation.  A synthetic map
    has no modes to freeze: its predicted trial is the plain step G(U).
    """
    import subbandeq.equilibrium as eq

    class FakeSpectrum:
        lam = np.full((g.ny1, g.ny2, 1), 10.0)

    class FakeEnergy:
        def __init__(self, F):
            self.total_direct = F

    class FakeState:
        def __init__(self, U_in, dual):
            self.spectrum = FakeSpectrum()
            self.mu = 1.0
            self.j_active = 1
            self.rho_j = np.zeros((g.ny1, g.ny2, 1))
            self.U = G(U_in)
            self.energy = FakeEnergy(dual)

    class FakeCycle:
        def __init__(self, U_in):
            self.U_in = U_in
            self.dual = D(U_in)
            self.state = FakeState(U_in, self.dual)
            if log is not None:
                log.append((U_in.copy(), self.dual))

    monkeypatch.setattr(eq, "_evaluate_cycle", lambda U, J, cfg, vext, guess=None: FakeCycle(U))
    monkeypatch.setattr(eq, "_predict", lambda cyc, cfg: cyc.state.U)


def _replay(cycles):
    """Evaluated cycles split by the dual guard: accepted steps (cycle, next) and rejected count."""
    import subbandeq.equilibrium as eq

    cur, steps, rejected = cycles[0], [], 0
    for c in cycles[1:]:
        if c.dual < cur.dual - eq.ENERGY_NOISE_REL * (1.0 + abs(cur.dual)):
            rejected += 1
        else:
            steps.append((cur, c))
            cur = c
    return steps, rejected


def _patch_linear_map(monkeypatch, g, factor):
    """Replace the outer cycle by U -> factor * U with dual -|U|^2, largest at the fixed point 0."""
    _patch_map(monkeypatch, g, lambda U: factor * U, lambda U: -float(np.sum(U**2)))


class TestChooseJMax:
    def test_zero_mu(self):
        assert choose_J_max(0.0) == 4
        assert choose_J_max(-5.0) == 4

    def test_moderate_mu(self):
        # ceil(sqrt(15)/pi) = 2, plus margin 2 -> max(4, 4)
        assert choose_J_max(5.0) == 4

    def test_large_mu(self):
        # ceil(sqrt(300)/pi) = 6, plus margin 2
        assert choose_J_max(100.0) == 8

    def test_nonfinite(self):
        with pytest.raises(ValueError):
            choose_J_max(float("nan"))


class TestAssembleDensity:
    def test_empty_below_bottom(self):
        g = Grid(6, 6, 16)
        spec = free_spectrum(g, 2)
        mu = float(np.min(spec.lam)) - 1.0
        rho_j, rho, U = occupied(spec, mu, g, OccupancyModel(T=0.0))
        assert np.all(rho_j == 0.0) and np.all(rho == 0.0) and np.all(U == 0.0)

    def test_single_band_ramp(self):
        g = Grid(6, 6, 16)
        spec = free_spectrum(g, 2)
        mu = float(np.min(spec.lam[:, :, 0])) + 0.5
        rho_j, _, _ = occupied(spec, mu, g, OccupancyModel(T=0.0))
        expected = 2.0 * np.pi * np.maximum(mu - spec.lam[:, :, 0], 0.0)
        assert np.allclose(rho_j[:, :, 0], expected, rtol=1e-14)
        assert np.all(rho_j[:, :, 1] == 0.0)

    def test_z_marginal_matches_band_sum(self):
        g = Grid(5, 5, 24)
        rng = np.random.default_rng(0)
        W = rng.uniform(0.0, 5.0, (5, 5, g.nz - 1))
        spec = solve_slices(W, 3, g)
        mu = float(np.min(spec.lam)) + 8.0
        rho_j, rho, _ = occupied(spec, mu, g, OccupancyModel(T=0.3, p=2.0))
        for i in range(5):
            for k in range(5):
                marginal = np.sum(rho[i, k] * g.z_weights())
                assert marginal == pytest.approx(np.sum(rho_j[i, k]), rel=1e-10)

    def test_density_nonnegative(self):
        g = Grid(4, 4, 16)
        spec = free_spectrum(g, 3)
        _, rho, _ = occupied(spec, 30.0, g, OccupancyModel(T=0.5, p=1.5))
        assert np.min(rho) >= 0.0


class TestFreeEnergy:
    def test_empty_state_all_zero(self):
        g = Grid(5, 5, 16)
        spec = free_spectrum(g, 2)
        mu = float(np.min(spec.lam)) - 1.0
        state = state_at(spec, mu, g, OccupancyModel(T=0.0), np.zeros(g.volume_shape))
        e = state.energy
        assert e.total_direct == 0.0 and e.total_primal == 0.0
        assert e.kinetic_v == e.band_energy == e.field_energy == e.casimir == 0.0

    def test_uncoupled_flat_band_oracle(self):
        # field decoupled (U forced to zero), V_ext = 0, T = 0, one active band:
        # F = M^2 / (4 pi A) + lambda_1 M with mu = lambda_1 + M / (2 pi A)
        g = Grid(12, 12, 32)
        spec = free_spectrum(g, 2)
        lam1 = free_mode_eigenvalue(1, g)
        M = 0.8
        A = g.lateral_area()
        mu = lam1 + M / (2.0 * np.pi * A)
        zero = np.zeros(g.volume_shape)
        state = state_at(spec, mu, g, OccupancyModel(T=0.0), zero, U=zero)
        assert state.mass(g) == pytest.approx(M, rel=1e-12)
        oracle = M**2 / (4.0 * np.pi * A) + lam1 * M
        assert state.energy.total_primal == pytest.approx(oracle, rel=1e-12)
        # the spectrum is exact for the zero potential, so both routes agree
        assert state.energy.total_direct == pytest.approx(oracle, rel=1e-12)

    @pytest.mark.parametrize("J", [3, 7])
    @pytest.mark.parametrize("T", [0.0, 0.3])
    def test_energies_ignore_empty_bands(self, J, T):
        # bands above mu add exact zeros, so two more of them (the first J
        # bands bitwise equal, mu the same) leave every digit of the
        # energies, of the mass and of the mass function the mu solve
        # inverts alone
        g = Grid(9, 7, 16)
        rng = np.random.default_rng(4)
        wide = solve_slices(rng.uniform(0.0, 20.0, (g.ny1, g.ny2, g.nz - 1)), J + 2, g)
        narrow = SubbandSpectrum(wide.lam[..., :J], wide.chi[..., :J, :])
        mu = float(np.min(wide.lam[..., J])) - 1e-3
        assert mu > np.max(wide.lam[..., J - 1])
        vext = rng.uniform(0.0, 5.0, g.volume_shape)
        U = rng.standard_normal(g.volume_shape)
        model = OccupancyModel(T=T)
        a = state_at(narrow, mu, g, model, vext, U=U)
        b = state_at(wide, mu, g, model, vext, U=U)
        assert a.energy.as_dict() == b.energy.as_dict()
        assert a.mass(g) == b.mass(g)
        assert subband_mass(mu, narrow.lam, g, model) == subband_mass(mu, wide.lam, g, model)

    def test_primal_equals_direct_on_converged(self):
        cfg = SolverConfig(
            M_target=1.0,
            grid=Grid(8, 8, 16),
            vext_kind="zwell",
            vext_amplitude=8.0,
            fp_tol=1e-10,
        )
        state, trace = solve_equilibrium(cfg)
        assert trace.converged
        e = state.energy
        assert abs(e.total_primal - e.total_direct) <= 1e-6 * (1 + abs(e.total_direct))


class TestSolveEquilibrium:
    def test_near_linear_regime_oracle(self):
        # vanishing mass: eigenvalues stay free, mu sits just above the bottom
        g = Grid(8, 8, 24)
        cfg = SolverConfig(M_target=1e-6, grid=g, fp_tol=1e-10)
        state, trace = solve_equilibrium(cfg)
        assert trace.converged
        free = free_mode_eigenvalue(np.arange(1, state.spectrum.J + 1), g)
        assert np.max(np.abs(state.spectrum.lam - free[None, None, :])) <= 1e-4
        mu_oracle = free[0] + 1e-6 / (2.0 * np.pi * g.lateral_area())
        assert state.mu == pytest.approx(mu_oracle, abs=1e-4)

    def test_residual_certificate(self):
        cfg = SolverConfig(M_target=1.0, grid=Grid(6, 6, 16), fp_tol=1e-9)
        state, trace = solve_equilibrium(cfg)
        assert trace.converged
        assert trace.residuals[-1] <= 1e-9
        assert trace.iterations == len(trace.mus) == len(trace.thetas)

    def test_state_invariants(self):
        g = Grid(8, 8, 16)
        model = OccupancyModel(T=0.2, p=2.0)
        cfg = SolverConfig(
            M_target=1.0, model=model, grid=g, vext_kind="zwell", fp_tol=1e-9
        )
        state, trace = solve_equilibrium(cfg)
        assert trace.converged
        state.validate(cfg)
        rho_j, _, U = occupied(state.spectrum, state.mu, g, model)
        assert np.array_equal(state.rho_j, rho_j) and np.array_equal(state.U, U)
        bad = dataclasses.replace(state, rho_j=state.rho_j * (1.0 + 1e-9))
        with pytest.raises(AssertionError, match="band densities"):
            bad.validate(cfg)
        # modes scaled by 1.2 leave mass and band densities intact; the
        # spectrum's own check rejects them
        spectrum = dataclasses.replace(state.spectrum, chi=1.2 * state.spectrum.chi)
        with pytest.raises(ValueError, match="normalized"):
            dataclasses.replace(state, spectrum=spectrum).validate(cfg)

    def test_validate_rejects_a_mass_miss(self):
        cfg = SolverConfig(M_target=1.0, grid=Grid(6, 6, 16), fp_tol=1e-9)
        state, trace = solve_equilibrium(cfg)
        assert trace.converged
        state.validate(cfg)
        with pytest.raises(AssertionError, match="misses target 1.000001"):
            state.validate(dataclasses.replace(cfg, M_target=1.000001))

    def test_initialization_independence(self):
        g = Grid(6, 6, 16)
        base = dict(M_target=1.0, grid=g, vext_kind="zwell", fp_tol=1e-11)
        s_zero, t0 = solve_equilibrium(SolverConfig(**base, init_kind="zero"))
        s_rand, t1 = solve_equilibrium(
            SolverConfig(**base, init_kind="random", init_seed=1)
        )
        assert t0.converged and t1.converged
        grad = np.sqrt(dirichlet_energy(s_zero.U, g))
        assert gradient_distance(s_zero.U, s_rand.U, g) <= 1e-6 * (1.0 + grad)

    def test_determinism(self):
        cfg = SolverConfig(M_target=1.0, grid=Grid(6, 6, 16), fp_tol=1e-9)
        s1, _ = solve_equilibrium(cfg)
        s2, _ = solve_equilibrium(cfg)
        assert np.array_equal(s1.U, s2.U)
        assert s1.mu == s2.mu

    def test_full_solve_bitwise_identical_across_blas_thread_counts(self, run_python):
        # the acceptance grid is large enough for BLAS to split its work,
        # so this guards every reduction of the loop, the Anderson Gram
        # products included
        script = (
            "import hashlib, numpy as np\n"
            "from subbandeq.equilibrium import SolverConfig, solve_equilibrium\n"
            "from subbandeq.grid import Grid\n"
            "from subbandeq.occupancy import OccupancyModel\n"
            "cfg = SolverConfig(M_target=1.0, model=OccupancyModel(T=0.2), grid=Grid(24, 24, 64),\n"
            "                   vext_kind='zwell', vext_amplitude=8.0)\n"
            "state, trace = solve_equilibrium(cfg)\n"
            "rows = np.array([trace.residuals, trace.mus, trace.free_energies, trace.thetas])\n"
            "h = hashlib.sha256(np.float64(state.mu).tobytes() + state.U.tobytes())\n"
            "h.update(rows.tobytes())\n"
            "print(trace.converged, trace.iterations, h.hexdigest())\n"
        )
        outputs = [run_python("-c", script, threads=n, timeout=300).stdout for n in (1, 2)]
        assert outputs[0].startswith("True ")
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("T", [0.0, 0.2])
    def test_predicted_steps_take_three_map_evaluations(self, monkeypatch, T):
        # at weak coupling every frozen-mode prediction raises the dual and
        # cuts the map residual tenfold: a zwell solve at M = 1 needs exactly
        # three map evaluations (the start and two predicted steps, each
        # recorded at theta 1) and rejects no trial
        import subbandeq.equilibrium as eq

        evals = []
        evaluate = eq._evaluate_cycle

        def counting_evaluate(*args, **kwargs):
            evals.append(args[1])
            return evaluate(*args, **kwargs)

        monkeypatch.setattr(eq, "_evaluate_cycle", counting_evaluate)
        cfg = SolverConfig(M_target=1.0, model=OccupancyModel(T=T), grid=Grid(8, 8, 32),
                           vext_kind="zwell")
        _, trace = solve_equilibrium(cfg)
        assert trace.converged
        assert len(evals) == 3
        assert trace.rejected_trials == 0
        assert trace.predicted_steps == trace.iterations == 2
        assert all(t == 1.0 for t in trace.thetas)

    def test_nonconvergence_returns_trace(self):
        cfg = SolverConfig(M_target=1.0, grid=Grid(6, 6, 16), max_outer=2, fp_tol=1e-14)
        state, trace = solve_equilibrium(cfg)
        assert not trace.converged
        assert trace.iterations == 2

    def test_adaptive_damping_halves_on_dual_decrease(self, monkeypatch):
        # physical desk-scale maps never lower the dual on a full step, so
        # the reject path is exercised with a synthetic overcorrecting map:
        # U -> -4 U, dual -|U|^2.  The predicted trial G(U) lowers the dual,
        # so prediction stops.  The damped step at theta scales U by
        # 1 - 5 theta, which lowers the dual for theta > 0.4 and raises it
        # below; theta is halved from THETA_START until it does
        import subbandeq.equilibrium as eq

        g = Grid(4, 4, 8)
        log = []
        _patch_map(monkeypatch, g, lambda U: -4.0 * U, lambda U: -float(np.sum(U**2)), log)
        U0 = np.ones(g.volume_shape)
        cfg = SolverConfig(M_target=1.0, grid=g, fp_tol=1e-10, max_outer=200)
        state, trace = eq.fixed_point(U0, cfg)
        thetas = [eq.THETA_START]
        while abs(1.0 - 5.0 * thetas[-1]) > 1.0:
            thetas.append(0.5 * thetas[-1])
        rejected = len(thetas) - 1
        assert rejected >= 1 and thetas[-1] > eq.THETA_MIN
        assert trace.converged
        assert trace.rejected_trials == 1 + rejected and trace.predicted_steps == 0
        assert np.array_equal(log[1][0], -4.0 * U0)
        for (U, _), theta in zip(log[2:], thetas):
            assert np.array_equal(U, (1.0 - theta) * U0 + theta * (-4.0 * U0))
        assert all(t == thetas[-1] for t in trace.thetas)  # halved once per rejected damped trial
        duals = [D for _, D in log[:1] + log[2 + rejected:]]
        assert np.all(np.diff(duals) >= 0.0)

    def test_solve_stops_when_no_step_raises_the_dual(self, monkeypatch):
        # U -> U / 2 with dual +|U|^2: every trial shrinks |U| and lowers the
        # dual.  The predicted trial fails first and stops prediction.  With
        # no history yet the damped trial is retried at theta
        # = THETA_START * 2^-k until theta is at or below THETA_MIN; that
        # trial fails too, so the solve stops at the start, unconverged and
        # without a step
        import subbandeq.equilibrium as eq

        g = Grid(4, 4, 8)
        log = []
        _patch_map(monkeypatch, g, lambda U: 0.5 * U, lambda U: float(np.sum(U**2)), log)
        cfg = SolverConfig(M_target=1.0, grid=g, max_outer=3)
        U0 = np.ones(g.volume_shape)
        state, trace = fixed_point(U0, cfg)
        thetas = [eq.THETA_START]
        while thetas[-1] > eq.THETA_MIN:
            thetas.append(0.5 * thetas[-1])
        assert not trace.converged
        assert trace.iterations == 0
        assert trace.rejected_trials == 1 + len(thetas)
        assert len(log) == 2 + len(thetas)
        assert np.array_equal(log[1][0], 0.5 * U0)
        for (U, _), theta in zip(log[2:], thetas):
            assert np.array_equal(U, (1.0 - theta) * U0 + theta * (0.5 * U0))
        assert np.array_equal(state.U, 0.5 * U0)
        norm = l2_norm_volume(U0, g)
        assert trace.final_residual == pytest.approx(0.5 * norm / (1.0 + norm))

    def test_rejected_acceleration_falls_back_to_damped_step(self, monkeypatch):
        # U -> U - tanh(U) from U = 3 with dual -|U|^2: the predicted step
        # G(U) cuts the residual by far less than tenfold, so prediction stops
        # after it.  The residual is nearly flat there, so the secant-like
        # accelerated trial overshoots far past the fixed point 0 and lowers
        # the dual, while the damped step raises it
        import subbandeq.equilibrium as eq

        g = Grid(4, 4, 8)
        log = []
        _patch_map(monkeypatch, g, lambda U: U - np.tanh(U), lambda U: -float(np.sum(U**2)), log)
        cfg = SolverConfig(M_target=1.0, grid=g, fp_tol=1e-10, max_outer=100)
        U0 = np.full(g.volume_shape, 3.0)
        _, trace = eq.fixed_point(U0, cfg)
        assert trace.converged
        assert trace.rejected_trials >= 1 and trace.predicted_steps == 1
        assert np.array_equal(log[1][0], U0 - np.tanh(U0))
        # replay the log: after each rejected trial the next one is the
        # plain damped step from the last accepted iterate
        (U_cur, D_cur), rejected, duals = log[0], 0, [log[0][1]]
        for (U, D), (U_next, _) in zip(log[1:], log[2:] + [(None, None)]):
            if D < D_cur - eq.ENERGY_NOISE_REL * (1.0 + abs(D_cur)):
                rejected += 1
                theta = eq.THETA_START
                damped = (1.0 - theta) * U_cur + theta * (U_cur - np.tanh(U_cur))
                assert np.array_equal(U_next, damped)
            else:
                U_cur, D_cur = U, D
                duals.append(D)
        assert rejected == trace.rejected_trials
        assert trace.iterations == len(log) - 1 - rejected
        assert np.all(np.diff(duals) >= 0.0)
        assert all(t == eq.THETA_START for t in trace.thetas)

    def test_rejection_with_a_full_history_restarts_it(self, monkeypatch):
        # the dual counts evaluations, except that the accelerated trial made
        # with ANDERSON_DEPTH pairs lowers it: evaluation 0 is the start, 1
        # the predicted step (which stops prediction on U - tanh(U)), and the
        # Anderson step after accepted evaluation 1 + k uses k pairs.  A
        # nonuniform start keeps the df_i independent, so no pair is dropped
        import subbandeq.equilibrium as eq

        g = Grid(4, 4, 8)
        log, held = [], []
        reject_at = 2 + eq.ANDERSON_DEPTH

        def dual(U):
            return -1e9 if len(log) == reject_at else float(len(log))

        step = eq._Anderson.step

        def recording_step(self, theta):
            U_new = step(self, theta)
            held.append(len(self.pairs))
            return U_new

        _patch_map(monkeypatch, g, lambda U: U - np.tanh(U), dual, log)
        monkeypatch.setattr(eq._Anderson, "step", recording_step)
        cfg = SolverConfig(M_target=1.0, grid=g, fp_tol=1e-10, max_outer=100)
        U0 = np.linspace(2.0, 3.0, np.prod(g.volume_shape)).reshape(g.volume_shape)
        _, trace = eq.fixed_point(U0, cfg)
        assert trace.converged and trace.rejected_trials == 1
        assert held[: reject_at] == list(range(eq.ANDERSON_DEPTH + 1)) + [0]
        # the trial after the rejection is the plain step from the last
        # accepted iterate, and its acceptance starts the new history
        U_cur = log[reject_at - 1][0]
        assert np.array_equal(log[reject_at + 1][0], U_cur - np.tanh(U_cur))
        assert held[reject_at] == 1

    @pytest.mark.parametrize("T", [0.0, 0.2])
    def test_real_map_ascends_the_dual_below_the_free_energy(self, monkeypatch, T):
        # random-start solves of the real map: no accepted step, predicted or
        # not, lowers the dual D(U_in) by more than the noise floor, and on
        # every evaluation F - D = (1/2) ||grad (G(U) - U)||^2
        import subbandeq.equilibrium as eq

        cycles = []
        evaluate = eq._evaluate_cycle

        def recording_evaluate(*args, **kwargs):
            cycles.append(evaluate(*args, **kwargs))
            return cycles[-1]

        monkeypatch.setattr(eq, "_evaluate_cycle", recording_evaluate)
        g = Grid(8, 8, 16)
        cfg = SolverConfig(M_target=1.0, model=OccupancyModel(T=T), grid=g, vext_kind="zwell",
                           init_kind="random", init_seed=3)
        _, trace = solve_equilibrium(cfg)
        assert trace.converged and trace.predicted_steps >= 1
        steps, rejected = _replay(cycles)
        assert rejected == trace.rejected_trials
        assert [eq._map_residual(c, g) for _, c in steps] == trace.residuals
        for c in cycles:
            F = c.state.energy.total_direct
            gap = 0.5 * dirichlet_energy(c.state.U - c.U_in, g)
            assert abs(F - c.dual - gap) <= 1e-12 * max(1.0, abs(F))

    @pytest.mark.parametrize("T", [0.0, 0.2])
    def test_frozen_mode_map_at_the_cycle_input_is_the_map(self, T):
        # at V = U_k the frozen eigenvalues are the cycle's, so mu, the
        # density and the Poisson solve repeat the cycle's bit for bit
        import subbandeq.equilibrium as eq

        g = Grid(8, 6, 16)
        cfg = SolverConfig(M_target=3.0, model=OccupancyModel(T=T), grid=g, vext_kind="zwell")
        cyc = eq._evaluate_cycle(random_smooth_potential(g, 5), 3, cfg, external_potential(cfg))
        assert cyc.state.j_active >= 1
        P = eq._frozen_map(cyc, cfg)
        assert np.array_equal(P(cyc.U_in), cyc.state.U)

    def test_strong_coupling_solve_takes_at_most_seventeen_map_evaluations(self, monkeypatch):
        # at M = 1e5 (8x8x32 zwell) the full G step overshoots: the G-Anderson
        # loop alone took 24 map evaluations.  Frozen-mode predictions take
        # the first steps, and every accepted step raises the dual
        import subbandeq.equilibrium as eq

        cycles = []
        evaluate = eq._evaluate_cycle

        def recording_evaluate(*args, **kwargs):
            cycles.append(evaluate(*args, **kwargs))
            return cycles[-1]

        monkeypatch.setattr(eq, "_evaluate_cycle", recording_evaluate)
        cfg = SolverConfig(M_target=1e5, grid=Grid(8, 8, 32), vext_kind="zwell")
        _, trace = solve_equilibrium(cfg)
        assert trace.converged and trace.predicted_steps >= 1
        assert len(cycles) <= 17
        steps, rejected = _replay(cycles)
        assert rejected == trace.rejected_trials and len(steps) == trace.iterations
        assert all(c.dual > cur.dual for cur, c in steps)

    @pytest.mark.parametrize("theta", [0.5, 0.125])
    def test_certificate_independent_of_theta(self, monkeypatch, theta):
        # map U -> U / 2 with fixed point 0: ||U|| is the distance to the
        # fixed point, so the returned potential must meet fp_tol whatever
        # the damping (a damped-step certificate overshoots it by 1/theta)
        import subbandeq.equilibrium as eq

        g = Grid(4, 4, 8)
        _patch_linear_map(monkeypatch, g, 0.5)
        monkeypatch.setattr(eq, "THETA_START", theta)
        cfg = SolverConfig(M_target=1.0, grid=g, fp_tol=1e-6, max_outer=500)
        state, trace = fixed_point(np.ones(g.volume_shape), cfg)
        assert trace.converged
        assert l2_norm_volume(state.U, g) <= cfg.fp_tol
        # the predicted step G(U) halves the residual, so the steps after it
        # are damped Anderson steps at theta
        assert trace.predicted_steps == 1 and trace.thetas[0] == 1.0
        assert trace.iterations > 1 and all(t == theta for t in trace.thetas[1:])

    def test_converged_start_takes_no_step(self):
        g = Grid(6, 6, 16)
        base = dict(M_target=1.0, grid=g, vext_kind="zwell")
        state, _ = solve_equilibrium(SolverConfig(**base, fp_tol=1e-11))
        cfg = SolverConfig(**base, fp_tol=1e-9)
        again, trace = fixed_point(state.U, cfg)
        assert trace.converged
        assert trace.iterations == 0
        assert trace.final_residual <= cfg.fp_tol
        assert again.mu == pytest.approx(state.mu, rel=1e-9)

    def test_cold_start_retries_until_top_band_empty(self, monkeypatch):
        # three bands are occupied at M = 400, so the first cycle's budget of
        # two is retried at three and four.  A retried cycle is the one the
        # larger budget runs, so mu is bit for bit that of a solve that
        # computes choose_J_max(mu) bands on every cycle
        import subbandeq.equilibrium as eq

        cfg = SolverConfig(M_target=400.0, grid=Grid(8, 8, 8), vext_kind="zwell")
        U0 = np.zeros(cfg.grid.volume_shape)

        budgets = []

        def recording(W, J, grid, guess=None):
            budgets.append(J)
            return solve_slices(W, J, grid, guess)

        monkeypatch.setattr(eq, "solve_slices", recording)
        state, trace = fixed_point(U0, cfg)
        assert trace.converged
        assert budgets[:3] == [2, 3, 4]
        assert state.j_active == 3
        assert state.spectrum.J == 4
        assert state.top_band_margin > 0.0
        fixed, _ = fixed_point(U0, cfg, min_bands=choose_J_max(state.mu))
        assert fixed.spectrum.J == cfg.grid.nz - 1 > state.spectrum.J
        assert state.mu == fixed.mu

    @pytest.mark.parametrize("T, M, nz", [(0.0, 1.0, 16), (0.2, 1.0, 16), (0.0, 400.0, 8)])
    def test_state_potential_is_the_poisson_potential_of_its_density(self, T, M, nz):
        # the state's rho and the closure that produced its U contract
        # rho_j with the same squared modes, so they cannot drift apart;
        # at M = 400 the first cycle retries its band budget
        g = Grid(8, 8, nz)
        cfg = SolverConfig(M_target=M, model=OccupancyModel(T=T), grid=g, vext_kind="zwell")
        state, trace = solve_equilibrium(cfg)
        assert trace.converged
        assert np.array_equal(state.U, solve_poisson(state.rho, g))

    def test_poisson_and_mu_solves_per_map_and_frozen_map_evaluation(self, monkeypatch):
        # every cycle and every evaluation of the frozen-mode map P ends in
        # one Poisson solve, and every eigensolve and every P evaluation in
        # one mu solve.  At M = 400 the first cycle retries its band budget,
        # and a retry pays an eigensolve and a mu solve but no Poisson solve
        import subbandeq.equilibrium as eq

        calls = dict.fromkeys(("solve_slices", "solve_mu", "solve_poisson", "_evaluate_cycle",
                               "_predict"), 0)
        for name in calls:
            def counting(*args, _name=name, _fn=getattr(eq, name), **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(eq, name, counting)
        cfg = SolverConfig(M_target=400.0, grid=Grid(8, 8, 8), vext_kind="zwell")
        _, trace = solve_equilibrium(cfg)
        assert trace.converged and trace.predicted_steps >= 1
        evals, p_evals = calls["_evaluate_cycle"], eq.PREDICTOR_STEPS * calls["_predict"]
        assert calls["solve_slices"] > evals
        assert calls["solve_poisson"] == evals + p_evals
        assert calls["solve_mu"] == calls["solve_slices"] + p_evals

    def test_budget_capped_at_every_discrete_band(self):
        # nz = 4 has 3 interior nodes, so 3 bands are all there are; at
        # M = 3000 every one is occupied and the solve runs with a negative
        # top-band margin rather than asking for a fourth band; mu is that of
        # a solve with all 3 bands on every cycle
        cfg = SolverConfig(M_target=3000.0, grid=Grid(4, 4, 4), vext_kind="zwell")
        state, trace = solve_equilibrium(cfg)
        assert trace.converged
        assert state.spectrum.J == state.j_active == 3
        assert state.top_band_margin < 0.0
        U0 = np.zeros(cfg.grid.volume_shape)
        fixed, _ = fixed_point(U0, cfg, min_bands=cfg.grid.nz - 1)
        assert state.mu == fixed.mu

    def test_supplied_initial_potential(self):
        g = Grid(6, 6, 16)
        U0 = np.full(g.volume_shape, 0.3)
        cfg = SolverConfig(M_target=1.0, grid=g, vext_kind="zwell", fp_tol=1e-10)
        state, trace = fixed_point(U0, cfg)
        assert trace.converged

    def test_bump_potential_and_shallow_entropy(self):
        # lateral Gaussian barrier with the p = 1.5 entropy branch
        cfg = SolverConfig(
            M_target=1.0,
            model=OccupancyModel(T=0.3, p=1.5),
            grid=Grid(8, 8, 16),
            vext_kind="bump",
            vext_amplitude=3.0,
            fp_tol=1e-9,
        )
        state, trace = solve_equilibrium(cfg)
        assert trace.converged
        state.validate(cfg)
        e = state.energy
        assert abs(e.total_primal - e.total_direct) <= 1e-6 * (1 + abs(e.total_direct))


class TestActiveSubbands:
    def test_empty(self):
        g = Grid(5, 5, 16)
        spec = free_spectrum(g, 2)
        mu = float(np.min(spec.lam)) - 1.0
        state = state_at(spec, mu, g, OccupancyModel(T=0.0), np.zeros(g.volume_shape))
        r = check_subband_structure(state)
        assert r.passed and r.lhs == 0

    def test_bound_on_converged_state(self):
        cfg = SolverConfig(
            M_target=1.0, grid=Grid(8, 8, 16), vext_kind="zwell", fp_tol=1e-9
        )
        state, _ = solve_equilibrium(cfg)
        r = check_subband_structure(state)
        assert r.passed and 1 <= r.lhs < r.rhs
        # any band whose continuum floor pi^2 j^2 / 6 already exceeds mu is empty
        for j in range(1, state.spectrum.J + 1):
            if np.pi**2 * j**2 / 6.0 >= state.mu:
                assert np.max(state.mu - state.spectrum.lam[:, :, j - 1]) <= 0.0

    def test_paper_style_arithmetic(self):
        # mu = 5 gives cap sqrt(15)/pi + 1 ~ 2.23, so at most one active band
        g = Grid(5, 5, 16)
        spec = free_spectrum(g, 2)
        state = state_at(spec, 5.0, g, OccupancyModel(T=0.0), np.zeros(g.volume_shape))
        r = check_subband_structure(state)
        assert r.rhs == pytest.approx(np.sqrt(15.0) / np.pi + 1.0)
        assert r.passed and r.lhs <= 1


class TestExternalPotential:
    def test_zwell_profile(self):
        g = Grid(4, 4, 16)
        cfg = SolverConfig(grid=g, vext_kind="zwell", vext_amplitude=8.0)
        v = external_potential(cfg)
        z = g.z_nodes()
        assert np.allclose(v[2, 2], 8.0 * z * (1.0 - z))
        assert np.min(v) >= 0.0

    def test_bump_nonnegative_and_lateral(self):
        g = Grid(6, 6, 12)
        cfg = SolverConfig(grid=g, vext_kind="bump", vext_amplitude=3.0)
        v = external_potential(cfg)
        assert np.min(v) >= 0.0
        assert np.allclose(v[:, :, 0], v[:, :, -1])

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(M_target=-1.0)
        with pytest.raises(ValueError):
            SolverConfig(vext_kind="nope")
        with pytest.raises(ValueError):
            SolverConfig(init_kind="supplied")
        with pytest.raises(ValueError):
            SolverConfig(init_kind="random", init_seed=-3)
        # a float seed would reach random.Random only at the solve's first draw
        with pytest.raises(TypeError):
            SolverConfig(init_kind="random", init_seed=1.5)
        assert SolverConfig(init_kind="random", init_seed=np.int64(3)).init_seed == 3
        for amplitude in (np.inf, np.nan, -40.0, -1e-300):
            with pytest.raises(ValueError):
                SolverConfig(vext_kind="zwell", vext_amplitude=amplitude)
        assert SolverConfig(vext_kind="zwell", vext_amplitude=0.0).vext_amplitude == 0.0
        # a float cap would allow ceil(max_outer) steps, and inf none at all
        for max_outer in (2.5, 3.0, float("inf")):
            with pytest.raises(TypeError):
                SolverConfig(max_outer=max_outer)
        assert SolverConfig(max_outer=np.int64(3)).max_outer == 3
        with pytest.raises(ValueError):
            SolverConfig(max_outer=np.int64(0))
        for tol in (0.0, np.nan, np.inf):
            with pytest.raises(ValueError):
                SolverConfig(fp_tol=tol)


class TestSeededDraws:
    # Every seeded output rests on this stream, so any change to it must fail here.
    @pytest.mark.parametrize(
        "seed, uniforms, integers, normals",
        [
            (0, [0.6888437030500962, 0.515908805880605, -0.15885683833831], [2, 5, 4, 7],
             [-0.8410232534781072, 0.12456794846508412, 1.108828735436829]),
            (10**20, [-0.9636099420240227, 0.08349097740945188, 0.17577236051466083], [7, 7, 7, 7],
             [0.3836405980907533, -1.914591412688204, -0.05209849038055347]),
        ],
        ids=["0", "1e20"],
    )
    def test_stream_pinned(self, seed, uniforms, integers, normals):
        draws = SeededDraws(seed)
        assert [draws.uniform(-1.0, 1.0) for _ in range(3)] == uniforms
        assert [draws.integer(0, 10) for _ in range(4)] == integers
        assert draws.normals((3,)).tolist() == normals

    @pytest.mark.parametrize("u", [0.0, 0.5, 1.0 - 2.0**-53])
    def test_extreme_uniforms(self, u):
        draws = SeededDraws(0)
        draws.random = lambda: u
        for low, high in ((1, 3), (1, 4), (-5, 7), (0, 2**60 + 3)):
            assert low <= draws.integer(low, high) < high
        # Box-Muller takes the log of 1 - u, never of 0
        assert np.all(np.isfinite(draws.normals((2,))))

    def test_seed_must_be_a_non_negative_integer(self):
        # random.Random would take |seed| and give -1 the stream of 1, and
        # would hash a float seed
        with pytest.raises(ValueError):
            SeededDraws(-1)
        with pytest.raises(TypeError):
            SeededDraws(1.5)
        assert SeededDraws(np.int64(7)).random() == SeededDraws(7).random()


def test_anderson_gram_matches_a_full_rebuild():
    # H gains one row per push; it must equal the Gram matrix of the kept df_i
    # bit for bit, also after a push past ANDERSON_DEPTH and after step drops
    # the oldest pair of a singular H
    import subbandeq.equilibrium as eq

    g = Grid(5, 5, 8)
    rng = np.random.default_rng(3)
    hist = eq._Anderson(g, *rng.standard_normal((2, *g.volume_shape)))

    def check():
        H = [[hist._inner(p, q) for _, q in hist.pairs] for _, p in hist.pairs]
        assert np.array_equal(hist.H, np.array(H).reshape(len(H), len(H)))

    for _ in range(eq.ANDERSON_DEPTH + 2):
        hist.push(*rng.standard_normal((2, *g.volume_shape)))
        check()
        hist.step(0.5)
        check()
    # a step on which G moves as U does has df = 0 up to rounding: H is
    # singular, and step drops the older pairs, leaving only that one
    d = rng.standard_normal(g.volume_shape)
    hist.push(hist.U + d, hist.G + d)
    check()
    hist.step(1.0)
    check()
    assert len(hist.pairs) == 1
