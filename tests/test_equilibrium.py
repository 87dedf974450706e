import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import subbandeq
from subbandeq.equilibrium import (
    SolverConfig,
    assemble_density,
    choose_J_max,
    external_potential,
    fixed_point,
    make_state,
    solve_equilibrium,
)
from subbandeq.grid import Grid, l2_norm_volume
from subbandeq.occupancy import OccupancyModel
from subbandeq.poisson import gradient_distance, dirichlet_energy
from subbandeq.schrodinger import free_mode_eigenvalue, solve_slices
from subbandeq.verify import check_subband_structure


def free_spectrum(grid, J):
    return solve_slices(np.zeros((grid.ny1, grid.ny2, grid.nz - 1)), J, grid)


def _patch_map(monkeypatch, g, G, F, log=None):
    """Replace the outer cycle by U -> G(U) with free energy F(U) (arrays in, float out).

    log, if given, receives (U_in, F) of every evaluation.
    """
    import subbandeq.equilibrium as eq

    class FakeSpectrum:
        lam = np.full((g.ny1, g.ny2, 1), 10.0)

    class FakeEnergy:
        def __init__(self, F):
            self.total_direct = F

    class FakeState:
        def __init__(self, U_in):
            self.spectrum = FakeSpectrum()
            self.mu = 1.0
            self.rho_j = np.zeros((g.ny1, g.ny2, 1))
            self.U = G(U_in)
            self.energy = FakeEnergy(F(U_in))
            if log is not None:
                log.append((U_in.copy(), self.energy.total_direct))

    class FakeCycle:
        def __init__(self, U_in):
            self.U_in = U_in
            self.state = FakeState(U_in)

    monkeypatch.setattr(eq, "_evaluate_cycle", lambda U, J, cfg, vext, guess=None: FakeCycle(U))


def _patch_linear_map(monkeypatch, g, factor):
    """Replace the outer cycle by U -> factor * U with free energy |U|^2."""
    _patch_map(monkeypatch, g, lambda U: factor * U, lambda U: float(np.sum(U**2)))


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
        rho_j, rho = assemble_density(spec, mu, OccupancyModel(T=0.0), g)
        assert np.all(rho_j == 0.0) and np.all(rho == 0.0)

    def test_single_band_ramp(self):
        g = Grid(6, 6, 16)
        spec = free_spectrum(g, 2)
        mu = float(np.min(spec.lam[:, :, 0])) + 0.5
        rho_j, _ = assemble_density(spec, mu, OccupancyModel(T=0.0), g)
        expected = 2.0 * np.pi * np.maximum(mu - spec.lam[:, :, 0], 0.0)
        assert np.allclose(rho_j[:, :, 0], expected, rtol=1e-14)
        assert np.all(rho_j[:, :, 1] == 0.0)

    def test_z_marginal_matches_band_sum(self):
        g = Grid(5, 5, 24)
        rng = np.random.default_rng(0)
        W = rng.uniform(0.0, 5.0, (5, 5, g.nz - 1))
        spec = solve_slices(W, 3, g)
        mu = float(np.min(spec.lam)) + 8.0
        rho_j, rho = assemble_density(spec, mu, OccupancyModel(T=0.3, p=2.0), g)
        for i in range(5):
            for k in range(5):
                marginal = np.sum(rho[i, k] * g.z_weights())
                assert marginal == pytest.approx(np.sum(rho_j[i, k]), rel=1e-10)

    def test_density_nonnegative(self):
        g = Grid(4, 4, 16)
        spec = free_spectrum(g, 3)
        _, rho = assemble_density(spec, 30.0, OccupancyModel(T=0.5, p=1.5), g)
        assert np.min(rho) >= 0.0


class TestFreeEnergy:
    def test_empty_state_all_zero(self):
        g = Grid(5, 5, 16)
        spec = free_spectrum(g, 2)
        mu = float(np.min(spec.lam)) - 1.0
        state = make_state(spec, mu, g, OccupancyModel(T=0.0), np.zeros(g.volume_shape))
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
        state = make_state(spec, mu, g, OccupancyModel(T=0.0), zero, U=zero)
        assert state.mass(g) == pytest.approx(M, rel=1e-12)
        oracle = M**2 / (4.0 * np.pi * A) + lam1 * M
        assert state.energy.total_primal == pytest.approx(oracle, rel=1e-12)
        # the spectrum is exact for the zero potential, so both routes agree
        assert state.energy.total_direct == pytest.approx(oracle, rel=1e-12)

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
        state.validate(g, model, cfg.M_target)
        state.spectrum.validate(g)
        assert np.array_equal(state.rho, assemble_density(state.spectrum, state.mu, model, g)[1])
        bad = dataclasses.replace(state, rho_j=state.rho_j * (1.0 + 1e-9))
        with pytest.raises(AssertionError, match="band densities"):
            bad.validate(g, model, cfg.M_target)

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

    def test_full_solve_bitwise_identical_across_blas_thread_counts(self):
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
        src = str(Path(subbandeq.__file__).resolve().parents[1])
        outputs = []
        for threads in ("1", "2"):
            env = {
                **os.environ,
                "OPENBLAS_NUM_THREADS": threads,
                "OMP_NUM_THREADS": threads,
                "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
            }
            run = subprocess.run(
                [sys.executable, "-c", script], env=env, check=True, capture_output=True,
                text=True, timeout=300,
            )
            outputs.append(run.stdout)
        assert outputs[0].startswith("True ")
        assert outputs[0] == outputs[1]

    def test_nonconvergence_returns_trace(self):
        cfg = SolverConfig(M_target=1.0, grid=Grid(6, 6, 16), max_outer=2, fp_tol=1e-14)
        state, trace = solve_equilibrium(cfg)
        assert not trace.converged
        assert trace.iterations == 2

    def test_adaptive_damping_halves_on_energy_increase(self, monkeypatch):
        # physical desk-scale maps are contractive enough that full steps
        # never raise the free energy, so the reject path is exercised with
        # a synthetic overcorrecting map: U -> -4 U, free energy |U|^2.  The
        # damped step at THETA_START = 0.5 scales U by -1.5 and diverges; one
        # halving to theta = 0.25 scales it by -0.25 and contracts.
        import subbandeq.equilibrium as eq

        g = Grid(4, 4, 8)
        _patch_linear_map(monkeypatch, g, -4.0)
        U0 = np.ones(g.volume_shape)
        cfg = SolverConfig(M_target=1.0, grid=g, fp_tol=1e-10, max_outer=200)
        state, trace = eq.fixed_point(U0, cfg, external_potential(cfg))
        assert eq.THETA_START == 0.5
        assert trace.converged
        assert trace.thetas[0] == 0.25  # halved once on the first rejected trial
        assert all(t == 0.25 for t in trace.thetas)
        noise = eq.ENERGY_NOISE_REL * (1.0 + np.abs(np.array(trace.free_energies[:-1])))
        assert np.all(np.diff(trace.free_energies) <= noise)

    def test_rising_steps_at_theta_min_are_counted(self, monkeypatch):
        # U -> U / 2 with free energy -|U|^2: every trial shrinks |U|, so
        # every trial raises F.  The accelerated trial (exact for a linear
        # map) gives way to the damped step, which halves theta down to
        # THETA_MIN and is then accepted with a rising free energy.
        import subbandeq.equilibrium as eq

        g = Grid(4, 4, 8)
        _patch_map(monkeypatch, g, lambda U: 0.5 * U, lambda U: -float(np.sum(U**2)))
        cfg = SolverConfig(M_target=1.0, grid=g, max_outer=3)
        _, trace = fixed_point(np.ones(g.volume_shape), cfg, external_potential(cfg))
        assert not trace.converged
        assert trace.theta_min_rises == 3
        assert trace.anderson_rejections == 2  # no history before the first step
        assert all(t <= eq.THETA_MIN for t in trace.thetas)

    def test_rejected_acceleration_falls_back_to_damped_step(self, monkeypatch):
        # U -> U - tanh(U) from U = 3: the residual is nearly flat there, so
        # the secant-like accelerated trial overshoots far past the fixed
        # point 0 and raises F = |U|^2, while the damped step lowers it
        import subbandeq.equilibrium as eq

        g = Grid(4, 4, 8)
        log = []
        _patch_map(monkeypatch, g, lambda U: U - np.tanh(U), lambda U: float(np.sum(U**2)), log)
        cfg = SolverConfig(M_target=1.0, grid=g, fp_tol=1e-10, max_outer=100)
        U0 = np.full(g.volume_shape, 3.0)
        _, trace = eq.fixed_point(U0, cfg, external_potential(cfg))
        assert trace.converged
        assert trace.anderson_rejections >= 1
        # replay the log: after each rejected trial the next one is the
        # plain damped step from the last accepted iterate
        (U_cur, F_cur), rejected = log[0], 0
        for (U, F), (U_next, _) in zip(log[1:], log[2:] + [(None, None)]):
            if F > F_cur + eq.ENERGY_NOISE_REL * (1.0 + abs(F_cur)):
                rejected += 1
                damped = 0.5 * U_cur + 0.5 * (U_cur - np.tanh(U_cur))
                assert np.array_equal(U_next, damped)
            else:
                U_cur, F_cur = U, F
        assert rejected == trace.anderson_rejections
        assert trace.iterations == len(log) - 1 - rejected
        noise = eq.ENERGY_NOISE_REL * (1.0 + np.abs(np.array(trace.free_energies[:-1])))
        assert np.all(np.diff(trace.free_energies) <= noise)
        assert all(t == 0.5 for t in trace.thetas)

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
        state, trace = fixed_point(np.ones(g.volume_shape), cfg, external_potential(cfg))
        assert trace.converged
        assert l2_norm_volume(state.U, g) <= cfg.fp_tol

    def test_converged_start_takes_no_step(self):
        g = Grid(6, 6, 16)
        base = dict(M_target=1.0, grid=g, vext_kind="zwell")
        state, _ = solve_equilibrium(SolverConfig(**base, fp_tol=1e-11))
        cfg = SolverConfig(**base, fp_tol=1e-9)
        again, trace = fixed_point(state.U, cfg, external_potential(cfg))
        assert trace.converged
        assert trace.iterations == 0
        assert trace.final_residual <= cfg.fp_tol
        assert again.mu == pytest.approx(state.mu, rel=1e-9)

    def test_supplied_initial_potential(self):
        g = Grid(6, 6, 16)
        U0 = np.full(g.volume_shape, 0.3)
        cfg = SolverConfig(M_target=1.0, grid=g, vext_kind="zwell", fp_tol=1e-10)
        state, trace = fixed_point(U0, cfg, external_potential(cfg))
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
        state.validate(cfg.grid, cfg.model, cfg.M_target)
        e = state.energy
        assert abs(e.total_primal - e.total_direct) <= 1e-6 * (1 + abs(e.total_direct))


class TestActiveSubbands:
    def test_empty(self):
        g = Grid(5, 5, 16)
        spec = free_spectrum(g, 2)
        mu = float(np.min(spec.lam)) - 1.0
        state = make_state(spec, mu, g, OccupancyModel(T=0.0), np.zeros(g.volume_shape))
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
        state = make_state(spec, 5.0, g, OccupancyModel(T=0.0), np.zeros(g.volume_shape))
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
        for amplitude in (np.inf, np.nan):
            with pytest.raises(ValueError):
                SolverConfig(vext_kind="zwell", vext_amplitude=amplitude)
        for tol in (0.0, np.nan, np.inf):
            with pytest.raises(ValueError):
                SolverConfig(fp_tol=tol)
