"""Self-consistent equilibrium driver.

One outer cycle maps a trial potential U to a new one:

    eigensolve every lateral slice of U + V_ext (from the last cycle's modes)
      -> chemical potential mu matching the target mass (from the last mu)
      -> per-band densities rho_j = 2 pi G(mu - lambda_j) and total density
      -> Poisson solve for the induced potential U_new = G(U).

Potentials and densities are float arrays of Grid.volume_shape; a state
stores rho_j and derives the total density from it.

The next trial is an Anderson-mixed step (type II, Walker & Ni 2011): the
damped step U + theta (G(U) - U), theta = THETA_START at first, corrected
by a least-squares fit over the last ANDERSON_DEPTH steps.  The free energy
guards every step: an accelerated trial that raises the (directly
evaluated) free energy clears the history and is replaced by the plain
damped step, and a damped step that raises it is retried with theta
halved.  So the recorded free energy is nonincreasing after the first
accepted step; only a step taken at THETA_MIN may raise it, and the trace
counts those steps and the rejected accelerated trials.  The loop stops at
the first cycle whose map residual ||G(U) - U|| / (1 + ||U||) meets the
tolerance, so the certificate does not depend on theta.  fixed_point runs
the loop for any object with the gap profiles of OccupancyModel; verify
runs it with speed-grid profiles for its grid-consistent base.  Everything
is deterministic for a fixed configuration, also across BLAS thread counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grid import Grid, l2_norm_volume
from .occupancy import OccupancyModel, solve_mu
from .poisson import dirichlet_energy, solve_poisson
from .schrodinger import (
    SubbandSpectrum,
    band_sum_density,
    confined_kinetic,
    external_pairing,
    solve_slices,
)

VEXT_KINDS = ("zero", "zwell", "bump")
INIT_KINDS = ("zero", "random")

# Relative noise floor of one free-energy evaluation; free-energy increases
# below it do not trigger damping and the recorded trace is monotone up to it.
ENERGY_NOISE_REL = 1e-8

# Damping factor of the first step, and the smallest one: a damped step at
# THETA_MIN is accepted even if F rises.
THETA_START = 0.5
THETA_MIN = 1e-3

# Bands computed beyond the finite-subband bound.
J_MARGIN = 2

# Accepted steps the Anderson history spans.  It holds two volume vectors per
# step; on the benchmark solves depths 1, 2, 3 and 5 took 85, 74, 65 and 62
# map evaluations, and depth 2 keeps the history within the peak-memory budget.
ANDERSON_DEPTH = 2
# Pairs are dropped, oldest first, while the Gram matrix of the residual
# differences has a larger condition number.
_GRAM_COND_MAX = 1e10


class NonConvergence(RuntimeError):
    """A solve that a check depends on missed its fixed-point tolerance."""


@dataclass(frozen=True)
class SolverConfig:
    """Everything a solve needs; every field has a usable default."""

    M_target: float = 1.0
    model: OccupancyModel = field(default_factory=OccupancyModel)
    grid: Grid = field(default_factory=lambda: Grid(16, 16, 32))
    vext_kind: str = "zero"
    vext_amplitude: float = 8.0
    fp_tol: float = 1e-8
    max_outer: int = 300
    init_kind: str = "zero"
    init_seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.M_target < np.inf:
            raise ValueError("M_target must be finite and positive")
        if not np.isfinite(self.vext_amplitude):
            raise ValueError("external potential amplitude must be finite")
        if not 0.0 < self.fp_tol < np.inf:
            raise ValueError("fixed-point tolerance must be finite and positive")
        if self.max_outer < 1:
            raise ValueError("max_outer must be at least 1")
        if self.vext_kind not in VEXT_KINDS:
            raise ValueError(f"unknown external potential kind {self.vext_kind!r}")
        if self.init_kind not in INIT_KINDS:
            raise ValueError(f"unknown initial potential kind {self.init_kind!r}")
        if self.init_seed < 0:
            raise ValueError(f"initial potential seed must be non-negative, got {self.init_seed}")


def external_potential(cfg: SolverConfig) -> np.ndarray:
    """Built-in nonnegative confining potentials sampled at the nodes."""
    g = cfg.grid
    if cfg.vext_kind == "zero":
        return np.zeros(g.volume_shape)
    if cfg.vext_kind == "zwell":
        z = g.z_nodes()
        prof = cfg.vext_amplitude * z * (1.0 - z)
        return np.broadcast_to(prof[None, None, :], g.volume_shape).copy()
    # lateral Gaussian bump, constant in z
    y1 = g.y1_nodes()[:, None]
    y2 = g.y2_nodes()[None, :]
    sigma = 0.15 * min(g.L1, g.L2)
    r2 = (y1 - 0.5 * g.L1) ** 2 + (y2 - 0.5 * g.L2) ** 2
    lat = cfg.vext_amplitude * np.exp(-r2 / (2.0 * sigma**2))
    return np.repeat(lat[:, :, None], g.nz + 1, axis=2)


def random_smooth_potential(grid: Grid, seed: int) -> np.ndarray:
    """Low-mode random field satisfying both boundary conditions; seeded."""
    rng = np.random.default_rng(seed)
    y1 = grid.y1_nodes()[:, None, None] / grid.L1
    y2 = grid.y2_nodes()[None, :, None] / grid.L2
    z = grid.z_nodes()[None, None, :]
    v = np.zeros(grid.volume_shape)
    for m in (1, 2):
        for n in (1, 2):
            for l in (0, 1, 2):
                c = rng.standard_normal()
                v += c * np.sin(m * np.pi * y1) * np.sin(n * np.pi * y2) * np.cos(l * np.pi * z)
    return 0.5 * v


def subband_bound(mu: float) -> float:
    """sqrt(3 mu)/pi: fewer than this plus one bands are occupied at chemical potential mu."""
    return math.sqrt(3.0 * max(mu, 0.0)) / math.pi


def choose_J_max(mu_estimate: float) -> int:
    """Band budget from the finite-subband bound, recomputed every outer cycle."""
    if not math.isfinite(mu_estimate):
        raise ValueError("mu estimate must be finite")
    return max(4, math.ceil(subband_bound(mu_estimate)) + J_MARGIN)


def assemble_density(
    spectrum: SubbandSpectrum, mu: float, model: OccupancyModel, grid: Grid
) -> tuple[np.ndarray, np.ndarray]:
    """Per-band lateral densities and the total density field.

    rho_j(y) = 2 pi G(mu - lambda_j(y)); rho(x) = sum_j rho_j(y) chi_j(x)^2.
    """
    if spectrum.lam.shape[:2] != grid.lateral_shape:
        raise ValueError("spectrum does not match grid")
    rho_j = 2.0 * np.pi * model.profile_g(mu - spectrum.lam)
    return rho_j, band_sum_density(rho_j, spectrum.chi)


@dataclass(frozen=True)
class FreeEnergyBreakdown:
    """Free energy evaluated two ways.

    total_primal recombines the band-resolved pieces using the eigenvalue
    relation (band energy double-counts the field, hence the minus);
    total_direct evaluates the defining functional term by term.  On a
    self-consistent state the two agree up to the fixed-point residual.
    """

    kinetic_v: float
    band_energy: float
    field_energy: float
    casimir: float
    quantum_kinetic: float
    vext_pairing: float

    @property
    def total_primal(self) -> float:
        return self.kinetic_v + self.band_energy - self.field_energy + self.casimir

    @property
    def total_direct(self) -> float:
        return (
            self.kinetic_v
            + self.quantum_kinetic
            + self.vext_pairing
            + self.field_energy
            + self.casimir
        )

    def as_dict(self) -> dict:
        return {
            "kinetic_v": self.kinetic_v,
            "band_energy": self.band_energy,
            "field_energy": self.field_energy,
            "casimir": self.casimir,
            "quantum_kinetic": self.quantum_kinetic,
            "vext_pairing": self.vext_pairing,
            "total_primal": self.total_primal,
            "total_direct": self.total_direct,
        }


@dataclass(frozen=True)
class EquilibriumState:
    """Converged (or best-effort) self-consistent state.

    U is the potential induced by rho, which is assembled from the stored
    spectrum and mu, so the internal consistency identities hold exactly;
    the Schrodinger-side consistency is certified by the final residual.
    """

    mu: float
    spectrum: SubbandSpectrum
    U: np.ndarray
    rho_j: np.ndarray
    energy: FreeEnergyBreakdown

    @property
    def rho(self) -> np.ndarray:
        """Total density sum_j rho_j(y) chi_j(x)^2, shape volume_shape."""
        return band_sum_density(self.rho_j, self.spectrum.chi)

    def mass(self, grid: Grid) -> float:
        return float(np.sum(self.rho_j) * grid.hy1 * grid.hy2)

    @property
    def j_active(self) -> int:
        """Bands occupied somewhere: max_y (mu - lambda_j(y)) > 0."""
        return int(np.sum(np.max(self.mu - self.spectrum.lam, axis=(0, 1)) > 0.0))

    @property
    def top_band_margin(self) -> float:
        """min_y lambda_J(y) - mu; positive: no occupied band was cut off."""
        return float(np.min(self.spectrum.lam[..., -1]) - self.mu)

    def validate(self, grid: Grid, model: OccupancyModel, M_target: float) -> None:
        m = self.mass(grid)
        if abs(m - M_target) > 1e-8 * M_target:
            raise AssertionError(f"mass {m} misses target {M_target}")
        rho_j, _ = assemble_density(self.spectrum, self.mu, model, grid)
        scale = max(1.0, float(np.max(np.abs(self.rho_j))))
        if np.max(np.abs(rho_j - self.rho_j)) > 1e-12 * scale:
            raise AssertionError("stored band densities are not 2 pi G(mu - lambda_j)")
        if not np.all(np.diff(self.spectrum.lam, axis=2) > 1e-10):
            raise AssertionError("spectrum not strictly increasing in the band index")


@dataclass
class IterationTrace:
    """One row per accepted outer iteration."""

    residuals: list = field(default_factory=list)
    mus: list = field(default_factory=list)
    free_energies: list = field(default_factory=list)
    thetas: list = field(default_factory=list)
    converged: bool = False
    # Map residual of the returned cycle, also when no step was taken.
    final_residual: float = math.nan
    # Steps accepted at THETA_MIN although they raised the free energy.
    theta_min_rises: int = 0
    # Accelerated trials that raised the free energy and gave way to a damped step.
    anderson_rejections: int = 0

    @property
    def iterations(self) -> int:
        return len(self.residuals)

    def append(self, residual, mu, F, theta):
        self.residuals.append(float(residual))
        self.mus.append(float(mu))
        self.free_energies.append(float(F))
        self.thetas.append(float(theta))


def make_state(
    spectrum: SubbandSpectrum,
    mu: float,
    grid: Grid,
    model: OccupancyModel,
    vext: np.ndarray,
    U: np.ndarray | None = None,
) -> EquilibriumState:
    """Assemble a state, both free-energy routes included, from a spectrum and mu.

    The potential defaults to the Poisson solution of the assembled
    density; passing U explicitly decouples the field (useful for oracle
    tests against closed forms).
    """
    rho_j, rho = assemble_density(spectrum, mu, model, grid)
    if U is None:
        U = solve_poisson(rho, grid)
    area_w = grid.hy1 * grid.hy2
    gap = mu - spectrum.lam
    energy = FreeEnergyBreakdown(
        kinetic_v=float(2.0 * np.pi * np.sum(model.profile_k(gap)) * area_w),
        band_energy=float(np.sum(spectrum.lam * rho_j) * area_w),
        field_energy=0.5 * dirichlet_energy(U, grid),
        casimir=float(model.T * 2.0 * np.pi * np.sum(model.profile_b(gap)) * area_w),
        quantum_kinetic=confined_kinetic(rho_j, spectrum.chi, grid),
        vext_pairing=external_pairing(rho_j, spectrum.chi, vext, grid),
    )
    return EquilibriumState(mu=mu, spectrum=spectrum, U=U, rho_j=rho_j, energy=energy)


@dataclass(frozen=True)
class _Cycle:
    """One evaluation of the fixed-point map: the potential U_in and the state it produces."""

    U_in: np.ndarray
    state: EquilibriumState


def _evaluate_cycle(
    U_in: np.ndarray, J: int, cfg: SolverConfig, vext: np.ndarray,
    guess: EquilibriumState | None = None,
) -> _Cycle:
    """The map at U_in; guess, the last cycle's state, starts the eigensolve and the mu solve."""
    grid = cfg.grid
    W = (U_in + vext)[:, :, 1:-1]
    modes, mu_guess = (None, None) if guess is None else (guess.spectrum, guess.mu)
    spectrum = solve_slices(W, J, grid, modes)
    mu = solve_mu(cfg.M_target, spectrum.lam, grid, cfg.model, mu_guess=mu_guess)
    return _Cycle(U_in, make_state(spectrum, mu, grid, cfg.model, vext))


def _map_residual(cyc: _Cycle, grid: Grid) -> float:
    """||G(U) - U|| / (1 + ||U||) of one cycle."""
    return l2_norm_volume(cyc.state.U - cyc.U_in, grid) / (1.0 + l2_norm_volume(cyc.U_in, grid))


class _Anderson:
    """Type II Anderson mixing over the last ANDERSON_DEPTH accepted steps.

    Holds the steps dU_i = U_{i+1} - U_i and the residual differences
    df_i = f_{i+1} - f_i, f = G(U) - U, of accepted iterates.  Inner
    products carry the node volumes of the map residual's norm and are
    plain numpy sums, whose order does not depend on BLAS threads.
    """

    def __init__(self, grid: Grid):
        self.w = grid.hy1 * grid.hy2 * grid.z_weights()[None, None, :]
        self.pairs: list[tuple[np.ndarray, np.ndarray]] = []

    def _inner(self, a, b) -> float:
        return float(np.sum(a * b * self.w))

    def step(self, cyc: _Cycle, theta: float) -> np.ndarray:
        """(1 - theta) U + theta G(U), less the least-squares combination of the history."""
        U, G = cyc.U_in, cyc.state.U
        U_new = (1.0 - theta) * U + theta * G
        H = np.array([[self._inner(p, q) for _, q in self.pairs] for _, p in self.pairs])
        while self.pairs:
            ev = np.linalg.eigvalsh(H)
            if ev[0] > ev[-1] / _GRAM_COND_MAX:
                break
            del self.pairs[0]
            H = H[1:, 1:]
        if self.pairs:
            f = G - U
            gamma = np.linalg.solve(H, [self._inner(df, f) for _, df in self.pairs])
            for g, (dU, df) in zip(gamma, self.pairs):
                U_new -= g * dU
                U_new -= (g * theta) * df
        return U_new

    def push(self, cyc: _Cycle, nxt: _Cycle) -> None:
        """Record the accepted step from cyc to nxt."""
        dU = nxt.U_in - cyc.U_in
        df = nxt.state.U - cyc.state.U
        df -= dU
        self.pairs.append((dU, df))
        del self.pairs[:-ANDERSON_DEPTH]


def fixed_point(
    U0: np.ndarray, cfg: SolverConfig, vext: np.ndarray
) -> tuple[EquilibriumState, IterationTrace]:
    """Anderson-accelerated, energy-guarded fixed-point iteration of the outer cycle, from U0.

    cfg.model supplies the gap profiles G, K, B (and T) that turn each
    spectrum into a mass, a density and a free energy.  Stops at the first
    cycle, the starting one included, whose map residual is at most
    cfg.fp_tol, or after cfg.max_outer accepted steps; returns the state
    of that cycle and one trace row per accepted step.  trace.final_residual
    is the returned cycle's map residual.
    """
    grid = cfg.grid
    trace = IterationTrace()
    theta = THETA_START
    history = _Anderson(grid)
    J = min(choose_J_max(0.0), grid.nz - 1)
    cyc = _evaluate_cycle(U0, J, cfg, vext)
    residual = _map_residual(cyc, grid)
    while residual > cfg.fp_tol and trace.iterations < cfg.max_outer:
        cur = cyc.state
        J = min(choose_J_max(cur.mu), grid.nz - 1)
        # Evaluation noise in F (the mu solve's mass tolerance) sits near
        # 1e-9 relative; increases below this floor are not energy climbing.
        accept_tol = ENERGY_NOISE_REL * (1.0 + abs(cur.energy.total_direct))
        while True:
            nxt = _evaluate_cycle(history.step(cyc, theta), J, cfg, vext, cur)
            if nxt.state.energy.total_direct <= cur.energy.total_direct + accept_tol:
                break
            if history.pairs:
                history.pairs.clear()
                trace.anderson_rejections += 1
                continue
            if theta <= THETA_MIN:
                trace.theta_min_rises += 1
                break
            theta *= 0.5
        history.push(cyc, nxt)
        cyc = nxt
        residual = _map_residual(cyc, grid)
        trace.append(residual, cyc.state.mu, cyc.state.energy.total_direct, theta)
    trace.final_residual = residual
    trace.converged = residual <= cfg.fp_tol
    return cyc.state, trace


def solve_equilibrium(cfg: SolverConfig) -> tuple[EquilibriumState, IterationTrace]:
    """Self-consistent state by the accelerated fixed-point iteration.

    Returns the final state and the per-iteration trace; trace.converged
    tells whether the map residual of the returned state's cycle met
    cfg.fp_tol within cfg.max_outer steps.  The state always satisfies the
    mass and density-assembly identities; the residual certifies
    Schrodinger-Poisson consistency.
    """
    if cfg.init_kind == "zero":
        U0 = np.zeros(cfg.grid.volume_shape)
    else:
        U0 = random_smooth_potential(cfg.grid, cfg.init_seed)
    return fixed_point(U0, cfg, external_potential(cfg))
