"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  The two full-scale equilibrium solves are shared module fixtures;
everything else runs at desk scale.
"""

import json
import time

import numpy as np
import pytest

from subbandeq.cli import main as cli_main
from subbandeq.equilibrium import (
    ENERGY_NOISE_REL,
    SolverConfig,
    solve_equilibrium,
)
from subbandeq.grid import Grid
import subbandeq.occupancy as occupancy
from subbandeq.occupancy import OccupancyModel, solve_mu, subband_mass
from subbandeq.poisson import dirichlet_energy, potential_pairing, solve_poisson
from subbandeq.rearrange import RadialGrid, rearrange_energy_increasing
from subbandeq.validation import (
    eigensolver_study,
    manufactured_poisson_case,
    poisson_convergence_study,
)
from subbandeq.verify import (
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
)

WALL_LIMIT_S = 300.0


def report(criterion: int, name: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    extra = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {criterion:2d} {name}: {status}{extra}")
    assert passed, f"criterion {criterion} ({name}) failed{extra}"


@pytest.fixture(scope="module")
def big_solves():
    """Criterion 5 solves: 24 x 24 x 64, V_ext = 8 z (1 - z), M = 1."""
    results = {}
    for T in (0.0, 0.2):
        cfg = SolverConfig(
            M_target=1.0,
            model=OccupancyModel(T=T, p=2.0),
            grid=Grid(24, 24, 64),
            vext_kind="zwell",
            vext_amplitude=8.0,
            fp_tol=1e-8,
            max_outer=300,
        )
        t0 = time.perf_counter()
        state, trace = solve_equilibrium(cfg)
        results[T] = (cfg, state, trace, time.perf_counter() - t0)
    return results


@pytest.fixture(scope="module")
def small_bases():
    """Grid-consistent bases for the perturbation criteria (desk scale)."""
    bases = {}
    for T in (0.0, 0.2):
        cfg = SolverConfig(
            M_target=1.0,
            model=OccupancyModel(T=T, p=2.0),
            grid=Grid(12, 12, 32),
            vext_kind="zwell",
            vext_amplitude=8.0,
            fp_tol=1e-10,
        )
        state, trace = solve_equilibrium(cfg)
        assert trace.converged
        bases[T] = grid_consistent_base(state, cfg)
    return bases


def test_criterion_01_eigensolver_exactness():
    study = eigensolver_study()
    report(
        1,
        "eigensolver exactness",
        study["pass"],
        f"max rel err {study['max_relative_error']:.2e}, "
        f"continuum err {study['continuum_error_mode1']:.2e}",
    )


def test_criterion_02_poisson_convergence():
    # the study also bounds each solve's weak-form defect by 1e-8
    study = poisson_convergence_study()
    r1, r2 = study["error_ratios"]
    report(2, "poisson manufactured convergence", study["pass"], f"ratios {r1:.3f}, {r2:.3f}")


def test_criterion_03_weak_form_identity(big_solves):
    worst = 0.0
    solves = []
    for n in (16, 32, 64):
        grid, _, rho = manufactured_poisson_case(n)
        solves.append((grid, rho))
    rng = np.random.default_rng(0)
    g_rand = Grid(10, 10, 20)
    for _ in range(5):
        solves.append((g_rand, rng.standard_normal(g_rand.volume_shape)))
    for cfg, state, _, _ in big_solves.values():
        solves.append((cfg.grid, state.rho))
    for grid, rho in solves:
        U = solve_poisson(rho, grid)
        e = dirichlet_energy(U, grid)
        if e > 0:
            worst = max(worst, abs(potential_pairing(U, rho, grid) - e) / e)
    report(
        3,
        "discrete weak-form identity",
        worst <= 1e-8,
        f"worst relative defect {worst:.2e} over {len(solves)} solves",
    )


def test_criterion_04_zero_temperature_mass_formula():
    grid = Grid(8, 8, 16)
    model = OccupancyModel(T=0.0)
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        base = np.sort(rng.uniform(1.0, 30.0, size=5))
        lam = base[None, None, :] + 0.4 * rng.standard_normal((8, 8, 5))
        lam = np.sort(lam, axis=2)
        mu = float(np.median(lam))
        explicit = 2.0 * np.pi * np.sum(np.maximum(mu - lam, 0.0)) * grid.hy1 * grid.hy2
        got = subband_mass(mu, lam, grid, model)
        if explicit > 0:
            worst = max(worst, abs(got - explicit) / explicit)
    report(4, "T=0 mass formula", worst <= 1e-12, f"worst rel diff {worst:.2e}")


def test_criterion_05_equilibrium_convergence(big_solves):
    ok = True
    details = []
    for T, (cfg, state, trace, wall) in big_solves.items():
        noise = ENERGY_NOISE_REL * (1.0 + np.abs(np.array(trace.free_energies[:-1])))
        increases = np.diff(trace.free_energies)
        monotone = bool(np.all(increases <= noise))
        ok = ok and trace.converged and trace.residuals[-1] <= 1e-8
        ok = ok and trace.iterations <= 300 and wall <= WALL_LIMIT_S and monotone
        details.append(
            f"T={T}: iters={trace.iterations}, res={trace.residuals[-1]:.1e}, "
            f"wall={wall:.0f}s, monotone={monotone}"
        )
    report(5, "equilibrium convergence", ok, "; ".join(details))


def test_acceptance_solves_take_few_iterations(big_solves):
    # Anderson mixing: the damped loop took 21 steps on each of these
    iterations = {T: trace.iterations for T, (_, _, trace, _) in big_solves.items()}
    assert all(n <= 10 for n in iterations.values()), iterations


def test_mu_solve_mass_evaluations_on_acceptance_spectra(big_solves, monkeypatch):
    # bisection took about 35 mass evaluations per mu solve on these spectra
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return subband_mass(*args, **kwargs)

    monkeypatch.setattr(occupancy, "subband_mass", counted)
    for cfg, state, _, _ in big_solves.values():
        grid, model, M = cfg.grid, cfg.model, cfg.M_target
        for guess in (None, state.mu + 1e-6, state.mu - 1e-3, state.mu + 0.5, state.mu - 1.0):
            calls.clear()
            mu = solve_mu(M, state.spectrum.lam, grid, model, mu_guess=guess)
            assert len(calls) <= 12, (model.T, guess, len(calls))
            mass = subband_mass(mu, state.spectrum.lam, grid, model)
            assert abs(mass - M) <= occupancy.MU_REL_TOL * M


def test_criterion_06_finite_subband_bound(big_solves):
    ok = True
    details = []
    for T, (_, state, _, _) in big_solves.items():
        r = check_subband_structure(state)
        ok = ok and r.passed
        details.append(
            f"T={T}: J_active={int(r.lhs)} < {r.rhs:.3f}, "
            f"min gap {r.details['min_band_gap']:.2e}"
        )
    report(6, "finite subband bound", ok, "; ".join(details))


def test_top_band_unoccupied(big_solves):
    # occupation has support gap >= 0: a positive margin min_y lambda_J - mu
    # certifies that the band budget cut off no occupied band
    margins = {T: state.top_band_margin for T, (_, state, _, _) in big_solves.items()}
    detail = "; ".join(f"T={T}: margin {m:.3f}" for T, m in margins.items())
    report(6, "top computed band unoccupied", all(m > 0.0 for m in margins.values()), detail)


def test_criterion_07_mu_bound(big_solves):
    ok = True
    details = []
    for T, (cfg, state, _, _) in big_solves.items():
        r = check_mu_bound(state, cfg.model, cfg.M_target)
        ok = ok and r.passed
        details.append(f"T={T}: mu={r.lhs:.4f} <= {r.rhs:.4f}")
    report(7, "chemical potential bound", ok, "; ".join(details))


def test_criterion_08_uniqueness():
    cfg = SolverConfig(
        M_target=1.0,
        grid=Grid(12, 12, 32),
        vext_kind="zwell",
        vext_amplitude=8.0,
        fp_tol=1e-11,
    )
    r = check_uniqueness(cfg)
    report(
        8,
        "uniqueness across initializations",
        r.passed,
        f"worst pairwise relative gradient gap {r.lhs:.2e}",
    )


def test_criterion_09_coercivity(small_bases):
    n_pass = 0
    n_total = 0
    for T, base in small_bases.items():
        perts = []
        for i in range(20):
            perts.append(occupation_bump(base, 1e-1, seed=1000 + i))
        for i in range(20):
            perts.append(occupation_bump(base, 1e-2, seed=2000 + i))
        for i in range(10):
            perts.append(mode_rotation(base, 0.02 * (i + 1)))
        for pert in perts:
            n_total += 1
            if check_perturbation(base, pert)[0].passed:
                n_pass += 1
    report(9, "free-energy coercivity", n_pass == n_total, f"{n_pass}/{n_total} perturbations")


def test_criterion_10_stability_gap(small_bases):
    ok = True
    trend = []
    for T, base in small_bases.items():
        for eps in (1e-1, 1e-2, 1e-3):
            ratios = []
            for seed in range(5):
                pert = occupation_bump(base, eps, seed=3000 + seed)
                _, r = check_perturbation(base, pert)
                ok = ok and r.passed
                ratios.append(r.ratio)
            trend.append(f"T={T} eps={eps:g}: mean gap/bound {np.mean(ratios):.2e}")
    report(10, "stability gap", ok, "; ".join(trend))


def test_criterion_11_weighted_l1():
    grid = Grid(8, 8, 24)
    vgrid = RadialGrid.uniform(3.0, 96)
    n_pass = 0
    for seed in range(50):
        pair = rearrange_energy_increasing(random_test_pair(grid, 4, vgrid, seed=seed))
        if check_weighted_l1(pair, grid, OccupancyModel(T=0.0)).passed:
            n_pass += 1
    report(11, "weighted band-index bound", n_pass == 50, f"{n_pass}/50 pairs")


def test_criterion_12_rearrangement_invariance():
    grid = Grid(6, 6, 24)
    vgrid = RadialGrid.uniform(3.0, 64)
    model = OccupancyModel(T=0.5, p=2.0)
    n_pass = 0
    for seed in range(20):
        pair = random_test_pair(grid, 4, vgrid, seed=seed + 500)
        if check_rearrangement_invariance(pair, grid, model).passed:
            n_pass += 1
    report(12, "rearrangement invariance", n_pass == 20, f"{n_pass}/20 pairs")


def test_criterion_13_determinism(tmp_path):
    cfg = {
        "M_target": 0.5,
        "grid": {"ny1": 6, "ny2": 6, "nz": 16},
        "vext": {"kind": "zwell", "amplitude": 4.0},
        "fp_tol": 1e-9,
        "verify": {"n_pairs": 2, "n_perturbations": 2},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = cli_main(
            ["verify", "--config", str(cfg_path), "--out", str(out), "--seed", "42"]
        )
        assert code == 0
        outs.append((out / "verify_report.json").read_bytes())
    report(13, "deterministic verification reports", outs[0] == outs[1])
