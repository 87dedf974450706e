"""Executable checks of the structural inequalities on states and test pairs.

Assertions only use constants the theory states explicitly (3/pi^2, 6/pi^2,
4/M, 1/2, 1 + mu); bounds with unspecified constants are monitored as
ratio families instead of asserted.  All randomized inputs come from
equilibrium.SeededDraws, a stream on random.Random(seed).random(), whose
sequence Python guarantees across versions (numpy's Generator streams may
change between releases, NEP 19), so every report is reproducible.

check_perturbation evaluates a perturbed pair once and reports both
coercivity and the stability gap against a base pair that is re-converged
under the same radial-grid quadrature used for the perturbation.  Mixing
the exact profile integrals of the solver with grid sums would inject
quadrature mismatch far above the asserted slack; with one consistent
quadrature the inequalities hold to solver tolerance, which is what gets
verified.  The base comes from the solver's own fixed-point loop, run with
speed-grid gap profiles in place of the closed forms.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import asdict, dataclass, field
from dataclasses import replace as dc_replace

import numpy as np

from .equilibrium import (
    EquilibriumState,
    SeededDraws,
    SolverConfig,
    NonConvergence,
    external_potential,
    fixed_point,
    solve_equilibrium,
    subband_bound,
)
from .grid import Grid
from .occupancy import OccupancyModel
# Keep solve_slices, solve_poisson, pair_free_energy bound: perfbench/spans.py rebinds them.
from .poisson import dirichlet_energy, gradient_distance, solve_poisson  # noqa: F401
from .rearrange import (
    RadialGrid,
    AdmissiblePair,
    band_densities,
    joint_band_densities,
    occupation_sort_permutation,
    pair_casimir,
    pair_free_energy,
    pair_mass,
    rearrange_energy_increasing,
    rearrange_occupation_decreasing,
    velocity_kinetic,
)
from .schrodinger import band_sum_density, sine_modes, solve_slices  # noqa: F401
from .schrodinger import check_orthonormal, confined_kinetic, profile_kinetic_energy


@dataclass(frozen=True)
class CheckReport:
    name: str
    passed: bool
    lhs: float
    rhs: float
    ratio: float
    details: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        d = asdict(self)
        d["pass"] = d.pop("passed")
        return d


def _ratio(lhs: float, rhs: float) -> float:
    if lhs == 0.0 and rhs == 0.0:
        return 0.0
    if rhs == 0.0:
        return math.inf
    return lhs / rhs


# ---- seeded pair generation ---------------------------------------------------


def random_test_pair(
    grid: Grid,
    J: int,
    vgrid: RadialGrid,
    seed: int,
) -> AdmissiblePair:
    """Admissible pair with randomly mixed modes and random occupations.

    Modes are per-slice orthogonal mixes of sine modes (orthonormality is
    inherited exactly), from one stacked QR of seeded normal matrices;
    occupations are smooth seeded bumps clipped to [0, 1] that taper to zero
    at the edge of the speed grid.  J may be at most nz - 1: sine mode nz
    vanishes at every interior node.
    """
    if not 1 <= J <= grid.nz - 1:
        raise ValueError(f"J = {J} modes need 1 <= J <= nz - 1 = {grid.nz - 1}")
    draws = SeededDraws(seed)
    ny1, ny2 = grid.lateral_shape
    q, _ = np.linalg.qr(draws.normals((ny1, ny2, J, J)))
    chi = q @ sine_modes(J, grid)
    r = vgrid.r
    taper = np.clip(1.0 - (r / r[-1]) ** 2, 0.0, 1.0)
    y1 = grid.y1_nodes()[:, None] / grid.L1
    y2 = grid.y2_nodes()[None, :] / grid.L2
    f = np.empty((ny1, ny2, J, vgrid.n_nodes))
    for j in range(J):
        amp = draws.uniform(0.2, 1.0) / (1 + j)
        r0 = draws.uniform(0.0, 0.6 * r[-1])
        width = draws.uniform(0.2, 0.6) * r[-1]
        lateral = np.sin(np.pi * y1 * draws.integer(1, 3)) * np.sin(
            np.pi * y2 * draws.integer(1, 3)
        )
        radial = np.exp(-((r - r0) ** 2) / (2 * width**2)) * taper
        f[:, :, j, :] = amp * np.abs(lateral)[..., None] * radial[None, None, :]
    k = profile_kinetic_energy(chi, grid)
    return AdmissiblePair(f=np.clip(f, 0.0, 1.0), chi=chi, vgrid=vgrid, k=k)


def speed_grid_for(mu: float, lam_min: float) -> RadialGrid:
    """Radial grid of 128 intervals covering the occupied disk with headroom."""
    r_star = math.sqrt(2.0 * max(mu - lam_min, 0.0))
    return RadialGrid.uniform(max(1.25 * r_star, 1.0) + 0.25, 128)


# ---- weighted l1 bound ---------------------------------------------------------


def _weighted_band_l1(rho_j: np.ndarray, grid: Grid) -> float:
    """sum_j j^2 ||rho_{f_j}||_1 over the cross-section."""
    band_l1 = np.sum(rho_j, axis=(0, 1)) * (grid.hy1 * grid.hy2)
    return float(np.sum(np.arange(1, rho_j.shape[2] + 1) ** 2 * band_l1))


def check_weighted_l1(pair: AdmissiblePair, grid: Grid, model: OccupancyModel) -> CheckReport:
    """sum_j j^2 ||f_j|| <= (3/pi^2) sum int |dchi|^2 rho <= (6/pi^2) F, each
    with 1e-6 relative slack, evaluated on rearrange_energy_increasing(pair):
    the bound holds for energy-sorted pairs, so any admissible pair is taken."""
    pair = rearrange_energy_increasing(pair)
    rho_j = band_densities(pair)
    lhs = _weighted_band_l1(rho_j, grid)
    mid = 6.0 / math.pi**2 * confined_kinetic(rho_j, pair.k, grid)
    F, _ = pair_free_energy(pair, grid, model)
    rhs = float(6.0 / math.pi**2 * F)
    ok = lhs <= mid * (1.0 + 1e-6) and mid <= rhs * (1.0 + 1e-6)
    return CheckReport(
        name="weighted_l1",
        passed=ok,
        lhs=lhs,
        rhs=rhs,
        ratio=_ratio(lhs, rhs),
        details={"middle": mid, "free_energy": F},
    )


# ---- kinetic interpolation (monitor) -------------------------------------------


# Exponent s of the interpolation monitor; its density norm is L^q, q = (5s - 3)/(3s - 1) = 7/5.
KINETIC_EXPONENT = 2.0


def check_kinetic_interpolation(pair: AdmissiblePair, grid: Grid) -> CheckReport:
    """Ratio monitor for the density interpolation bound at s = KINETIC_EXPONENT.

    The constant is unspecified, so only finiteness is asserted here; the
    explicit Holder step in the band index, sum_j ||f_j||_s <=
    (sum_j j^(-2/(s-1)))^((s-1)/s) (sum_j j^2 ||f_j||_1)^(1/s), is asserted
    with its exact constant (1e-9 relative slack).
    """
    s = KINETIC_EXPONENT
    q = (5.0 * s - 3.0) / (3.0 * s - 1.0)
    rho_j = band_densities(pair)
    rho = band_sum_density(rho_j, pair.chi)
    lhs = float(np.sum(rho**q * grid.node_volumes()) ** (1.0 / q))
    fs = np.einsum("abjv,v->j", pair.f**s, pair.vgrid.weights) * (grid.hy1 * grid.hy2)
    holder_lhs = float(np.sum(fs ** (1.0 / s)))
    vel2 = 2.0 * velocity_kinetic(pair, grid)
    kin_mix = 2.0 * confined_kinetic(rho_j, pair.k, grid)
    e1 = 2.0 * s / (5.0 * s - 3.0)
    e2 = 2.0 * (s - 1.0) / (5.0 * s - 3.0)
    e3 = (s - 1.0) / (5.0 * s - 3.0)
    rhs = holder_lhs**e1 * vel2**e2 * kin_mix**e3
    ratio = _ratio(lhs, rhs)
    j_arr = np.arange(1, pair.J + 1, dtype=float)
    holder_rhs = float(
        np.sum(j_arr ** (-2.0 / (s - 1.0))) ** ((s - 1.0) / s)
        * _weighted_band_l1(rho_j, grid) ** (1.0 / s)
    )
    return CheckReport(
        name=f"kinetic_interpolation_s{s:g}",
        passed=math.isfinite(ratio) and holder_lhs <= holder_rhs * (1.0 + 1e-9),
        lhs=lhs,
        rhs=rhs,
        ratio=ratio,
        details={"holder_lhs": holder_lhs, "holder_rhs": holder_rhs},
    )


# ---- grid-consistent base for coercivity and stability --------------------------


@dataclass(frozen=True)
class GridBase:
    """Equilibrium structure re-converged under radial-grid quadrature.

    cfg is the main solve's config (grid, occupation model, V_ext); state
    is the equilibrium re-solved with speed-grid profiles.  pair carries
    its ansatz occupations sampled on the speed grid and its modes, so
    state.U is the potential of the pair's own (grid-quadrature) density
    and state.energy.total_direct the pair's free energy.  check_perturbation
    takes from the base alone its weight |v|^2/2 + lambda_j(y) + T beta'(f_j(y, v)),
    the pair's mass and V_ext, formed once here.
    """

    cfg: SolverConfig
    state: EquilibriumState
    pair: AdmissiblePair
    weight: np.ndarray
    mass: float
    vext: np.ndarray


def _base_occupations(
    model: OccupancyModel, a: np.ndarray, vgrid: RadialGrid
) -> np.ndarray:
    """Ansatz occupations on the speed grid at gaps a = mu - lambda_j(y).

    Returns shape a.shape + (nv,).  At T > 0 these are pointwise values of
    the occupation law.  At T = 0 the law is an indicator, whose raw
    samples make the self-consistency map discontinuous in the potential;
    instead each node carries the average of the indicator over its energy
    cell, which is the same admissible, band-monotone pair but depends
    continuously (piecewise linearly) on the spectrum.
    """
    u = 0.5 * vgrid.r**2
    a = np.asarray(a, dtype=float)[..., None]
    if model.T > 0.0:
        return model.occupancy(a - u)
    lo = np.empty_like(u)
    hi = np.empty_like(u)
    lo[0], lo[1:] = u[0], 0.5 * (u[:-1] + u[1:])
    hi[:-1], hi[-1] = lo[1:], u[-1]
    width = np.maximum(hi - lo, 1e-300)
    return np.clip((a - lo) / width, 0.0, 1.0)


@dataclass(frozen=True)
class _SpeedGridProfiles:
    """Gap profiles G, K, B of model with the velocity plane on vgrid.

    Each profile is the speed-grid sum of the base occupations (weighted
    by 1, |v|^2/2 or beta) divided by 2 pi.  As SolverConfig.model it makes
    the equilibrium loop's mass, density and free energy those of the
    sampled pair, as the rearrange-module functionals compute them.
    """

    model: OccupancyModel
    vgrid: RadialGrid

    @property
    def T(self) -> float:
        return self.model.T

    def _moment(self, values: np.ndarray) -> np.ndarray:
        return np.einsum("...v,v->...", values, self.vgrid.weights) / (2.0 * np.pi)

    def profile_g(self, a):
        return self._moment(_base_occupations(self.model, a, self.vgrid))

    def profile_k(self, a):
        u = 0.5 * self.vgrid.r**2
        return self._moment(_base_occupations(self.model, a, self.vgrid) * u)

    def profile_b(self, a):
        return self._moment(self.model.beta(_base_occupations(self.model, a, self.vgrid)))


_BASE_FP_TOL = 1e-9
_BASE_MAX_STEPS = 400
# Bands choose_J_max adds to the finite-subband bound.
J_MARGIN = 2


def choose_J_max(mu_estimate: float) -> int:
    """Bands above the finite-subband bound, at least 4; the base keeps and perturbs this many."""
    if not math.isfinite(mu_estimate):
        raise ValueError("mu estimate must be finite")
    return max(4, math.ceil(subband_bound(mu_estimate)) + J_MARGIN)


def grid_consistent_base(state: EquilibriumState, cfg: SolverConfig) -> GridBase:
    """Re-converge a state solved under cfg with all velocity integrals on a speed grid.

    Runs the equilibrium fixed-point loop of cfg from state.U at the state's
    mass, with the speed-grid profiles of cfg.model in place of the closed
    forms, until the potential's map residual is at most 1e-9; the discrete
    coercivity chain then closes up to that residual.  The base keeps
    choose_J_max(mu) bands (at most nz - 1), so the perturbation families
    have unoccupied bands to move occupation into.
    """
    vgrid = speed_grid_for(state.mu, float(np.min(state.spectrum.lam[:, :, 0])))
    base_cfg = dc_replace(
        cfg,
        M_target=state.mass(cfg.grid),
        model=_SpeedGridProfiles(cfg.model, vgrid),
        fp_tol=_BASE_FP_TOL,
        max_outer=_BASE_MAX_STEPS,
    )
    base, trace = fixed_point(state.U, base_cfg, min_bands=choose_J_max(state.mu))
    if not trace.converged:
        raise NonConvergence(
            f"grid-consistent base did not re-converge to {_BASE_FP_TOL:g} "
            f"in {_BASE_MAX_STEPS} steps"
        )
    lam, chi = base.spectrum.lam, base.spectrum.chi
    f = _base_occupations(cfg.model, base.mu - lam, vgrid)
    pair = AdmissiblePair(f=f, chi=chi, vgrid=vgrid, k=profile_kinetic_energy(chi, cfg.grid))
    weight = 0.5 * vgrid.r**2 + lam[..., None] + cfg.model.T * cfg.model.beta_prime(f)
    return GridBase(cfg, base, pair, weight, pair_mass(pair, cfg.grid), external_potential(cfg))


# ---- perturbation families ------------------------------------------------------


def occupation_bump(base: GridBase, eps: float, seed: int) -> AdmissiblePair:
    """Clipped random occupation perturbation of the base, in band order.

    At T = 0 the bump vanishes at speed nodes where any band of the base
    holds a fractional cell-averaged occupation, so the multiplier term of
    the stability chain keeps its exact sign structure node by node.
    """
    draws = SeededDraws(seed)
    grid, vgrid = base.cfg.grid, base.pair.vgrid
    r = vgrid.r
    y1 = grid.y1_nodes()[:, None] / grid.L1
    y2 = grid.y2_nodes()[None, :] / grid.L2
    g = np.zeros_like(base.pair.f)
    for j in range(base.pair.J):
        r0 = draws.uniform(0.1, 0.8) * r[-1]
        width = draws.uniform(0.1, 0.3) * r[-1]
        radial = np.exp(-((r - r0) ** 2) / (2 * width**2))
        m1, m2 = draws.integer(1, 4), draws.integer(1, 4)
        lateral = np.sin(m1 * np.pi * y1) * np.sin(m2 * np.pi * y2)
        g[:, :, j, :] = draws.uniform(-1.0, 1.0) * lateral[..., None] * radial
    if base.cfg.model.T == 0.0:
        f0 = base.pair.f
        fractional = np.any((f0 > 0.0) & (f0 < 1.0), axis=2, keepdims=True)
        g = np.where(fractional, 0.0, g)
    f = np.clip(base.pair.f + eps * g, 0.0, 1.0)
    return AdmissiblePair(f=f, chi=base.pair.chi, vgrid=vgrid, k=base.pair.k)


def mode_rotation(base: GridBase, angle: float) -> AdmissiblePair:
    """Rotate the two lowest modes inside their span; occupations unchanged."""
    c, s = math.cos(angle), math.sin(angle)
    a, b = base.pair.chi[:, :, 0, :], base.pair.chi[:, :, 1, :]
    chi = base.pair.chi.copy()
    chi[:, :, 0, :] = c * a + s * b
    chi[:, :, 1, :] = -s * a + c * b
    k = profile_kinetic_energy(chi, base.cfg.grid)
    return AdmissiblePair(f=base.pair.f.copy(), chi=chi, vgrid=base.pair.vgrid, k=k)


# ---- coercivity and stability ----------------------------------------------------


def check_perturbation(base: GridBase, pert: AdmissiblePair) -> tuple[CheckReport, CheckReport]:
    """Coercivity and stability-gap reports of one perturbed pair.

    Coercivity: the free-energy excess dominates the field gap plus the
    multiplier term, with slack 1e-6 * (1 + |LHS|) absolute.  Stability gap:
    (1 + mu) * delta, delta = |F(pert) - F| + mu |M(pert) - M|, dominates
    half the squared field gradient gap.  Both are evaluated on
    rearrange_occupation_decreasing(pert), the occupation-sorted arrangement
    the chain holds for, so pert may be in any band order; its modes must be
    orthonormal.
    """
    pert = rearrange_occupation_decreasing(pert)
    grid, model, state = base.cfg.grid, base.cfg.model, base.state
    check_orthonormal(pert.chi, grid)
    F_pert, U_pert = pair_free_energy(pert, grid, model, vext=base.vext)
    gap = 0.5 * dirichlet_energy(U_pert - state.U, grid)
    lhs = F_pert - state.energy.total_direct
    wsum = np.einsum(
        "abjv,abjv,v->", base.weight, pert.f - base.pair.f, base.pair.vgrid.weights
    ) * grid.hy1 * grid.hy2
    rhs = gap + float(wsum)
    tol = 1e-6 * (1.0 + abs(lhs))
    coercivity = CheckReport(
        name="coercivity",
        passed=lhs >= rhs - tol,
        lhs=float(lhs),
        rhs=float(rhs),
        ratio=_ratio(rhs, lhs),
        details={"field_gap": float(gap), "multiplier_term": float(wsum)},
    )
    delta = abs(lhs) + state.mu * abs(pair_mass(pert, grid) - base.mass)
    bound = (1.0 + state.mu) * delta
    stability = CheckReport(
        name="stability_gap",
        passed=gap <= bound * (1.0 + 1e-6),
        lhs=float(gap),
        rhs=float(bound),
        ratio=_ratio(gap, bound),
        details={"delta": float(delta)},
    )
    return coercivity, stability


# ---- state-level checks -----------------------------------------------------------


def check_mu_bound(
    state: EquilibriumState, model: OccupancyModel, M: float
) -> CheckReport:
    """0 < mu <= (4/M) (F + T beta'(1) M), with 1e-9 relative slack."""
    F = state.energy.total_direct
    bound = 4.0 / M * (F + model.T * float(model.beta_prime(1.0)) * M)
    ok = 0.0 < state.mu <= bound * (1.0 + 1e-9)
    return CheckReport(
        name="mu_bound",
        passed=ok,
        lhs=state.mu,
        rhs=bound,
        ratio=_ratio(state.mu, bound),
        details={"free_energy": F},
    )


def check_subband_structure(state: EquilibriumState) -> CheckReport:
    """Active-band cap sqrt(3 mu)/pi + 1 and strict spectral ordering."""
    j_active = state.j_active
    bound = subband_bound(state.mu) + 1.0
    min_gap = float(np.min(np.diff(state.spectrum.lam, axis=2)))
    ok = j_active < bound and min_gap > 1e-10
    return CheckReport(
        name="subband_structure",
        passed=ok,
        lhs=float(j_active),
        rhs=bound,
        ratio=_ratio(j_active, bound),
        details={"min_band_gap": min_gap},
    )


def check_energy_agreement(state: EquilibriumState) -> CheckReport:
    """The band-resolved and direct free-energy routes agree on converged states."""
    primal = state.energy.total_primal
    direct = state.energy.total_direct
    err = abs(primal - direct)
    tol = 1e-6 * (1.0 + abs(direct))
    return CheckReport(
        name="energy_agreement",
        passed=err <= tol,
        lhs=primal,
        rhs=direct,
        ratio=_ratio(err, tol),
        details={"difference": err},
    )


def check_uniqueness(cfg: SolverConfig) -> CheckReport:
    """Pairwise gradient agreement of solves from the zero start and two seeded random ones."""
    starts = [dc_replace(cfg, init_kind="zero")]
    starts += [dc_replace(cfg, init_kind="random", init_seed=s) for s in (1, 2)]
    fields = []
    for c in starts:
        state, trace = solve_equilibrium(c)
        if not trace.converged:
            raise NonConvergence("a uniqueness run failed to converge")
        fields.append(state.U)
    worst = max(
        gradient_distance(a, b, cfg.grid) / (1.0 + math.sqrt(dirichlet_energy(a, cfg.grid)))
        for a, b in itertools.combinations(fields, 2)
    )
    return CheckReport(
        name="uniqueness",
        passed=worst <= 1e-6,
        lhs=worst,
        rhs=1e-6,
        ratio=_ratio(worst, 1e-6),
        details={"n_initializations": len(starts)},
    )


def check_rearrangement_invariance(
    pair: AdmissiblePair, grid: Grid, model: OccupancyModel
) -> CheckReport:
    """Mass, Casimir, density and free energy unchanged by both rearrangements.

    The energy rearrangement is speed-independent, so its invariants are
    evaluated directly on the rearranged pair.  The occupation sort
    permutes bands per speed point, so the density and energy invariants
    are evaluated jointly through the permutation, pairing each occupation
    with the mode it traveled with.  Errors are absolute, against
    1e-12 * max(1, mass).
    """

    def invariants(p: AdmissiblePair):
        rho_j = band_densities(p)
        casimir = pair_casimir(p, grid, model)
        qkin = confined_kinetic(rho_j, p.k, grid)
        energy = velocity_kinetic(p, grid) + qkin + model.T * casimir
        return pair_mass(p, grid), casimir, band_sum_density(rho_j, p.chi), energy, qkin

    mass, casimir, rho, energy, qkin = invariants(pair)
    up = rearrange_energy_increasing(pair)
    mass_up, casimir_up, rho_up, energy_up, *_ = invariants(up)
    again = rearrange_energy_increasing(dc_replace(up, k=profile_kinetic_energy(up.chi, grid)))
    down = rearrange_occupation_decreasing(pair)
    rho_joint = joint_band_densities(pair, occupation_sort_permutation(pair))
    errs = {
        "mass_up": abs(mass_up - mass),
        "casimir_up": abs(casimir_up - casimir),
        "density_up": float(np.max(np.abs(rho_up - rho))),
        "energy_up": abs(energy_up - energy),
        "mass_down": abs(pair_mass(down, grid) - mass),
        "casimir_down": abs(pair_casimir(down, grid, model) - casimir),
        "density_down_joint": float(np.max(np.abs(band_sum_density(rho_joint, pair.chi) - rho))),
        "energy_down_joint": abs(confined_kinetic(rho_joint, pair.k, grid) - qkin),
        "idempotent_up": float(np.max(np.abs(again.chi - up.chi))),
        "idempotent_down": float(np.max(np.abs(rearrange_occupation_decreasing(down).f - down.f))),
    }
    worst = max(errs.values())
    tol = 1e-12 * max(1.0, mass)
    return CheckReport(
        name="rearrangement_invariance",
        passed=worst <= tol,
        lhs=worst,
        rhs=tol,
        ratio=_ratio(worst, tol),
        details=errs,
    )


# ---- orchestration -----------------------------------------------------------------


def run_verification(
    cfg: SolverConfig,
    seed: int = 42,
    n_pairs: int = 10,
    n_perturbations: int = 12,
) -> list[CheckReport]:
    """Solve, then run every check; returns one report per check family."""
    if operator.index(seed) < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    for name, n in (("n_pairs", n_pairs), ("n_perturbations", n_perturbations)):
        if operator.index(n) < 1:
            raise ValueError(f"{name} must be at least 1, got {n}")
    state, trace = solve_equilibrium(cfg)
    if not trace.converged:
        raise NonConvergence("equilibrium solve did not converge; cannot verify")
    grid, model = cfg.grid, cfg.model
    reports = [
        check_energy_agreement(state),
        check_subband_structure(state),
        check_mu_bound(state, model, cfg.M_target),
    ]

    vgrid = RadialGrid.uniform(3.0, 96)
    wl_reports = []
    ki_reports = []
    ri_reports = []
    for i in range(n_pairs):
        pair = random_test_pair(grid, min(4, grid.nz - 1), vgrid, seed + i)
        wl_reports.append(check_weighted_l1(pair, grid, model))
        ki_reports.append(check_kinetic_interpolation(pair, grid))
        ri_reports.append(check_rearrangement_invariance(pair, grid, model))
    reports.append(_aggregate("weighted_l1", wl_reports))
    ratios = [r.ratio for r in ki_reports if r.ratio > 0.0]
    spread = max(ratios) / min(ratios) if ratios else 0.0
    reports.append(
        CheckReport(
            name="kinetic_interpolation_family",
            passed=all(r.passed for r in ki_reports) and spread < 1e3,
            lhs=max(ratios) if ratios else 0.0,
            rhs=min(ratios) if ratios else 0.0,
            ratio=spread,
            details={"n_pairs": len(ki_reports), "exponent": KINETIC_EXPONENT},
        )
    )
    reports.append(_aggregate("rearrangement_invariance", ri_reports))

    base = grid_consistent_base(state, cfg)
    perturbation_reports = []
    for i in range(n_perturbations):
        kind = i % 3
        if kind == 0:
            pert = occupation_bump(base, 1e-1, seed + 100 + i)
        elif kind == 1:
            pert = occupation_bump(base, 1e-2, seed + 100 + i)
        else:
            pert = mode_rotation(base, 0.05 + 0.01 * i)
        perturbation_reports.append(check_perturbation(base, pert))
    co_reports, st_reports = zip(*perturbation_reports)
    reports.append(_aggregate("coercivity", list(co_reports)))
    reports.append(_aggregate("stability_gap", list(st_reports)))

    reports.append(check_uniqueness(cfg))
    return reports


def _aggregate(name: str, reports: list[CheckReport]) -> CheckReport:
    # a failing case before a passing one, then a ratio of inf or nan before a finite one
    worst = max(reports, key=lambda r: (not r.passed, not math.isfinite(r.ratio), r.ratio))
    return CheckReport(
        name=name,
        passed=all(r.passed for r in reports),
        lhs=worst.lhs,
        rhs=worst.rhs,
        ratio=worst.ratio,
        details={"n_cases": len(reports), "worst_case_details": worst.details},
    )
