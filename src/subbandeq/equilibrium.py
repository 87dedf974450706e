"""Self-consistent equilibrium driver.

One outer cycle maps a trial potential U to a new one:

    eigensolve every lateral slice of U + V_ext (from the last cycle's modes)
      -> chemical potential mu matching the target mass (from the last mu)
      -> occupy_modes: per-band densities rho_j = 2 pi G(mu - lambda_j) and
         the Poisson potential U_new = G(U) of the density sum_j rho_j chi_j^2.

The eigensolve computes only the bands the certificate needs: J = 2 on the
first cycle, then one above the last cycle's occupied bands, J_active + 1.
A laterally uniform first cycle (a zero start with the zero or zwell V_ext)
eigensolves one slice; see schrodinger.solve_slices.
A band lying above mu on every slice carries exactly zero density, since
the occupation law vanishes where the gap mu - lambda_j is negative.
After the mu solve the cycle checks that its top band is empty,
min_y lambda_J(y) > mu; if not, it adds one band and redoes the eigensolve
and the mu solve from the cycle's own start (the last cycle's modes and
mu), so the retried cycle is bit for bit the one a budget of J + 1 would
have run; only the last J is occupied, so a retry costs no Poisson solve.
At J = nz - 1 every discrete band is present and nothing can be cut off,
so the retry stops there whatever the margin.

Potentials and densities are float arrays of Grid.volume_shape; a state
stores rho_j and derives the total density from it.

The first trials are frozen-mode predictions (A. Trellakis et al., J. Appl.
Phys. 81, 7880, 1997), each evaluated by a full cycle.  The frozen-mode map P
ends in occupy_modes as the cycle does, so P(U_k) = G(U_k) by construction.
Prediction stops for the rest of the solve at the first predicted trial
that the dual guard below rejects, or that cuts the map residual by less
than PREDICT_MIN_CUT.  From then on the next trial is an Anderson-mixed
step (type II, Walker & Ni 2011), its history started at the current cycle:
the step U + theta (G(U) - U), theta = THETA_START = 1 (the full step) at first,
corrected by a least-squares fit over the last ANDERSON_DEPTH steps.  The
dual free energy of the map's input, D(U) = kinetic_v + band_energy +
casimir - (1/2) ||grad U||^2, guards every step: it is concave with
gradient G(U) - U in the Dirichlet inner product, so the full step raises
it whenever ||DG|| < 1, and F - D = (1/2) ||grad (G(U) - U)||^2 for the
free energy F of the output state (F. Nier, Comm. PDE 18, 1993).  A trial
that lowers D below its noise floor is rejected: an accelerated one starts
a fresh history at the current cycle, a damped one is retried with theta
halved, and when a damped one at THETA_MIN fails too the solve stops
unconverged.  F is nonincreasing on every measured solve, but nothing
enforces that.  The loop stops at the
first cycle whose map residual ||G(U) - U|| / (1 + ||U||) meets the
tolerance, so the certificate does not depend on theta; it runs for any
object with the gap profiles of OccupancyModel (verify passes speed-grid
ones) and is deterministic, also across BLAS thread counts.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import asdict, dataclass, field

import numpy as np

from .grid import Grid, l2_norm_volume
from .occupancy import MASS_REL_TOL, OccupancyModel, solve_mu
from .poisson import dirichlet_energy, solve_poisson
from .schrodinger import (
    SubbandSpectrum,
    band_sum_density,
    band_total,
    confined_kinetic,
    external_pairing,
    mode_expectations,
    profile_kinetic_energy,
    solve_slices,
)

VEXT_KINDS = ("zero", "zwell", "bump")
INIT_KINDS = ("zero", "random")

# Relative noise floor of one energy evaluation: a trial whose dual falls by
# less is accepted, and the recorded free energy is monotone up to it.
ENERGY_NOISE_REL = 1e-8

# Damping factor of the first step, and the smallest one: when a damped step
# at THETA_MIN lowers the dual the solve stops unconverged.  The full step took
# a third fewer map evaluations than 0.5 on 216 solves up to M = 1500; from
# M ~ 3e4, where ||DG|| passes 1, it overshoots (24 against 15 at M = 1e5).
THETA_START = 1.0
THETA_MIN = 1e-3

# Accepted steps the Anderson history spans.  It holds two volume vectors per
# step; depth 4 took 60 map evaluations against depth 2's 64 on sweep_wide
# seeds 1, 3, 7 and 11, the same on accept24 and verify_tall, for 0.9 MB more
# peak memory.  A Gram in the Dirichlet inner product did no better.
ANDERSON_DEPTH = 2
# Pairs are dropped, oldest first, while the Gram matrix of the residual
# differences has a larger condition number.
_GRAM_COND_MAX = 1e10

# Evaluations of the frozen-mode map per prediction (one took 4 map evaluations
# per acceptance solve against 3, three saved none), and the factor by which a
# predicted step must cut the map residual for the next trial to be predicted.
PREDICTOR_STEPS = 2
PREDICT_MIN_CUT = 10.0


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
        if not 0.0 <= self.vext_amplitude < np.inf:
            raise ValueError("external potential amplitude must be finite and nonnegative")
        if not 0.0 < self.fp_tol < np.inf:
            raise ValueError("fixed-point tolerance must be finite and positive")
        if operator.index(self.max_outer) < 1:
            raise ValueError("max_outer must be at least 1")
        if self.vext_kind not in VEXT_KINDS:
            raise ValueError(f"unknown external potential kind {self.vext_kind!r}")
        if self.init_kind not in INIT_KINDS:
            raise ValueError(f"unknown initial potential kind {self.init_kind!r}")
        if operator.index(self.init_seed) < 0:
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


class SeededDraws:
    """Seeded uniforms, integers and standard normals built on random.Random(seed).random() alone.

    Python guarantees that random() gives the same sequence for the same seed
    across versions; numpy's Generator streams may change between releases
    (NEP 19), and importing numpy.random also loads OpenSSL through secrets
    and hashlib.  Each value is scalar double arithmetic on the next u in
    [0, 1) with math.log, math.sqrt, math.cos and math.sin, not numpy ufuncs,
    whose SIMD paths can differ by an ulp between CPUs.  Draws follow call
    order in one stream.
    """

    def __init__(self, seed: int):
        seed = operator.index(seed)
        if seed < 0:
            raise ValueError(f"seed must be non-negative, got {seed}")
        self.random = random.Random(seed).random

    def uniform(self, low: float, high: float) -> float:
        return low + (high - low) * self.random()

    def integer(self, low: int, high: int) -> int:
        """An integer in [low, high), capped at high - 1 in case u (high - low) rounds up."""
        return min(low + math.floor(self.random() * (high - low)), high - 1)

    def normals(self, shape: tuple[int, ...]) -> np.ndarray:
        """Standard normals in C order, by Box-Muller on 1 - u in (0, 1], whose log is finite.

        Each pair of uniforms gives a cosine and a sine normal; an odd count
        drops the last sine.
        """
        u, log, sqrt, cos, sin = self.random, math.log, math.sqrt, math.cos, math.sin
        n = math.prod(shape)
        out = []
        for _ in range((n + 1) // 2):
            r, t = sqrt(-2.0 * log(1.0 - u())), math.tau * u()
            out += (r * cos(t), r * sin(t))
        return np.array(out[:n], dtype=float).reshape(shape)


def random_smooth_potential(grid: Grid, seed: int) -> np.ndarray:
    """Low-mode random field satisfying both boundary conditions.

    Its 12 coefficients are SeededDraws(seed) normals, so a seed gives the
    same field whatever the Python or numpy release.
    """
    coeffs = iter(SeededDraws(seed).normals((12,)))
    y1 = grid.y1_nodes()[:, None, None] / grid.L1
    y2 = grid.y2_nodes()[None, :, None] / grid.L2
    z = grid.z_nodes()[None, None, :]
    v = np.zeros(grid.volume_shape)
    for m in (1, 2):
        for n in (1, 2):
            for l in (0, 1, 2):
                c = next(coeffs)
                v += c * np.sin(m * np.pi * y1) * np.sin(n * np.pi * y2) * np.cos(l * np.pi * z)
    return 0.5 * v


def subband_bound(mu: float) -> float:
    """sqrt(3 mu)/pi: fewer than this plus one bands are occupied at chemical potential mu."""
    return math.sqrt(3.0 * max(mu, 0.0)) / math.pi


def occupy_modes(
    lam: np.ndarray, mu: float, chi: np.ndarray, grid: Grid, model: OccupancyModel
) -> tuple[np.ndarray, np.ndarray]:
    """Band densities rho_j = 2 pi G(mu - lambda_j) and the potential of sum_j rho_j chi_j^2."""
    rho_j = 2.0 * np.pi * model.profile_g(mu - lam)
    return rho_j, solve_poisson(band_sum_density(rho_j, chi), grid)


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
        totals = {"total_primal": self.total_primal, "total_direct": self.total_direct}
        return {**asdict(self), **totals}


@dataclass(frozen=True)
class EquilibriumState:
    """Converged (or best-effort) self-consistent state.

    rho_j and U are occupy_modes at the stored spectrum and mu, so U is the
    Poisson potential of rho bit for bit; the Schrodinger-side consistency
    is certified by the final residual.
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
        return band_total(self.rho_j) * grid.hy1 * grid.hy2

    @property
    def j_active(self) -> int:
        """Bands occupied somewhere: max_y (mu - lambda_j(y)) > 0."""
        return int(np.sum(np.max(self.mu - self.spectrum.lam, axis=(0, 1)) > 0.0))

    @property
    def top_band_margin(self) -> float:
        """min_y lambda_J(y) - mu; positive: no occupied band was cut off."""
        return float(np.min(self.spectrum.lam[..., -1]) - self.mu)

    def validate(self, cfg: SolverConfig) -> None:
        """SubbandSpectrum.validate, then mass cfg.M_target and rho_j = 2 pi G(mu - lambda_j)."""
        grid = cfg.grid
        self.spectrum.validate(grid)
        m = self.mass(grid)
        if abs(m - cfg.M_target) > MASS_REL_TOL * cfg.M_target:
            raise AssertionError(f"mass {m} misses target {cfg.M_target}")
        rho_j = 2.0 * np.pi * cfg.model.profile_g(self.mu - self.spectrum.lam)
        scale = max(1.0, float(np.max(np.abs(self.rho_j))))
        if np.max(np.abs(rho_j - self.rho_j)) > 1e-12 * scale:
            raise AssertionError("stored band densities are not 2 pi G(mu - lambda_j)")


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
    # Trials that lowered the dual and were retried or ended the solve.
    rejected_trials: int = 0
    # Accepted steps whose trial was a frozen-mode prediction (theta 1).
    predicted_steps: int = 0

    @property
    def iterations(self) -> int:
        return len(self.residuals)

    def append(self, residual, mu, F, theta):
        self.residuals.append(float(residual))
        self.mus.append(float(mu))
        self.free_energies.append(float(F))
        self.thetas.append(float(theta))


def make_state(
    spectrum: SubbandSpectrum, mu: float, rho_j: np.ndarray, U: np.ndarray,
    grid: Grid, model: OccupancyModel, vext: np.ndarray,
) -> EquilibriumState:
    """The state of occupy_modes' (rho_j, U) at spectrum and mu, both free-energy routes included."""
    area_w = grid.hy1 * grid.hy2
    gap = mu - spectrum.lam
    energy = FreeEnergyBreakdown(
        kinetic_v=2.0 * np.pi * band_total(model.profile_k(gap)) * area_w,
        band_energy=band_total(spectrum.lam * rho_j) * area_w,
        field_energy=0.5 * dirichlet_energy(U, grid),
        casimir=model.T * 2.0 * np.pi * band_total(model.profile_b(gap)) * area_w,
        quantum_kinetic=confined_kinetic(rho_j, profile_kinetic_energy(spectrum.chi, grid), grid),
        vext_pairing=external_pairing(rho_j, spectrum.chi, vext, grid),
    )
    return EquilibriumState(mu=mu, spectrum=spectrum, U=U, rho_j=rho_j, energy=energy)


@dataclass(frozen=True)
class _Cycle:
    """One evaluation of the fixed-point map: input U_in, the state it produces, and D(U_in)."""

    U_in: np.ndarray
    state: EquilibriumState
    dual: float


def _evaluate_cycle(
    U_in: np.ndarray, J: int, cfg: SolverConfig, vext: np.ndarray,
    guess: EquilibriumState | None = None,
) -> _Cycle:
    """The map at U_in with J <= nz - 1 bands or more; guess, the last cycle's state, starts it.

    While the top band is occupied somewhere and J < nz - 1, J grows by one
    and the eigensolve and the mu solve run again from the same start, so a
    retried cycle is the one the larger budget runs; occupy_modes runs once.
    """
    grid = cfg.grid
    modes, mu_guess = (None, None) if guess is None else (guess.spectrum, guess.mu)
    for J in range(J, grid.nz):
        # W formed per eigensolve is not alive at occupy_modes' memory peak
        spectrum = solve_slices((U_in + vext)[:, :, 1:-1], J, grid, modes)
        mu = solve_mu(cfg.M_target, spectrum.lam, grid, cfg.model, mu_guess=mu_guess)
        if np.min(spectrum.lam[..., -1]) > mu:
            break
    rho_j, U = occupy_modes(spectrum.lam, mu, spectrum.chi, grid, cfg.model)
    state = make_state(spectrum, mu, rho_j, U, grid, cfg.model, vext)
    e = state.energy
    dual = e.kinetic_v + e.band_energy + e.casimir - 0.5 * dirichlet_energy(U_in, grid)
    return _Cycle(U_in, state, dual)


def _map_residual(cyc: _Cycle, grid: Grid) -> float:
    """||G(U) - U|| / (1 + ||U||) of one cycle."""
    return l2_norm_volume(cyc.state.U - cyc.U_in, grid) / (1.0 + l2_norm_volume(cyc.U_in, grid))


class _Anderson:
    """Type II Anderson mixing over the last ANDERSON_DEPTH accepted steps.

    Holds the last accepted point (U, G(U)) and the steps dU_i and residual
    differences df_i = f_{i+1} - f_i, f = G(U) - U, of accepted iterates,
    with the Gram matrix H of the df_i, which gains one row and column per
    accepted step; only push and step change the pairs and H, so a caller
    that drops the history starts a new one.  Inner products carry the node
    volumes of the map residual's norm and are plain numpy sums, whose order
    does not depend on BLAS threads.
    """

    def __init__(self, grid: Grid, U: np.ndarray, G: np.ndarray):
        self.w = grid.node_volumes()
        self.U, self.G = U, G
        self.pairs: list[tuple[np.ndarray, np.ndarray]] = []
        self.H = np.empty((0, 0))

    def _inner(self, a, b) -> float:
        return float(np.sum(a * b * self.w))

    def _drop_oldest(self) -> None:
        del self.pairs[0]
        self.H = self.H[1:, 1:]

    def step(self, theta: float) -> np.ndarray:
        """(1 - theta) U + theta G(U), less the least-squares combination of the history."""
        U, G = self.U, self.G
        U_new = G.copy() if theta == 1.0 else (1.0 - theta) * U + theta * G
        while self.pairs:
            ev = np.linalg.eigvalsh(self.H)
            if ev[0] > ev[-1] / _GRAM_COND_MAX:
                break
            self._drop_oldest()
        if self.pairs:
            f = G - U
            gamma = np.linalg.solve(self.H, [self._inner(df, f) for _, df in self.pairs])
            for g, (dU, df) in zip(gamma, self.pairs):
                U_new -= g * dU
                U_new -= (g * theta) * df
        return U_new

    def push(self, U: np.ndarray, G: np.ndarray) -> None:
        """Accept the point U with map value G = G(U): record the step to it."""
        dU = U - self.U
        df = G - self.G
        df -= dU
        if len(self.pairs) == ANDERSON_DEPTH:
            self._drop_oldest()
        # a * b and b * a are the same doubles, so H stays symmetric bit for bit
        row = [self._inner(df, q) for _, q in self.pairs] + [self._inner(df, df)]
        n = len(self.pairs)
        H = np.empty((n + 1, n + 1))
        H[:n, :n] = self.H
        H[n, :] = H[:, n] = row
        self.pairs.append((dU, df))
        self.H = H
        self.U, self.G = U, G


def _frozen_map(cyc: _Cycle, cfg: SolverConfig):
    """The frozen-mode map P of a cycle at U_k: V -> the Poisson potential of P's density.

    P keeps the cycle's modes chi_j and moves their eigenvalues to their
    Rayleigh quotients at V, lambda_j + <chi_j^2, V - U_k>; then it solves
    mu from the cycle's mu and ends in occupy_modes, as the cycle does: at
    V = U_k every input is the cycle's, so P(U_k) is G(U_k) bit for bit.
    """
    grid, state = cfg.grid, cyc.state

    def P(V: np.ndarray) -> np.ndarray:
        lam = state.spectrum.lam + mode_expectations(V - cyc.U_in, state.spectrum.chi, grid)
        mu = solve_mu(cfg.M_target, lam, grid, cfg.model, mu_guess=state.mu)
        return occupy_modes(lam, mu, state.spectrum.chi, grid, cfg.model)[1]

    return P


def _predict(cyc: _Cycle, cfg: SolverConfig) -> np.ndarray:
    """Next trial: the Anderson estimate of P's fixed point from PREDICTOR_STEPS full steps on P."""
    P = _frozen_map(cyc, cfg)
    inner = _Anderson(cfg.grid, cyc.U_in, cyc.state.U)
    for _ in range(PREDICTOR_STEPS):
        V = inner.step(1.0)
        inner.push(V, P(V))
    return inner.step(1.0)


def fixed_point(
    U0: np.ndarray, cfg: SolverConfig, min_bands: int = 1
) -> tuple[EquilibriumState, IterationTrace]:
    """Anderson-accelerated fixed-point iteration of the outer cycle, from U0, ascending the dual.

    cfg fixes the minimization: mass, grid, external_potential(cfg) and the
    gap profiles G, K, B (and T) of cfg.model, which turn each spectrum into
    a mass, a density and a free energy.  Every cycle
    computes at least min_bands bands (at most nz - 1).  The trials are
    frozen-mode predictions until one is rejected or cuts the map residual
    by less than PREDICT_MIN_CUT, then Anderson steps on G.  Stops at the
    first cycle, the starting one included, whose map residual is at most
    cfg.fp_tol, after cfg.max_outer accepted steps, or when even a damped
    step at THETA_MIN lowers the dual; returns the state of that cycle and
    one trace row per accepted step.
    """
    grid, vext = cfg.grid, external_potential(cfg)
    trace = IterationTrace()
    theta = THETA_START
    history = None  # the Anderson history on G, started when prediction stops
    cyc = _evaluate_cycle(U0, min(max(2, min_bands), grid.nz - 1), cfg, vext)
    residual = _map_residual(cyc, grid)
    while residual > cfg.fp_tol and trace.iterations < cfg.max_outer:
        J = min(max(cyc.state.j_active + 1, min_bands), grid.nz - 1)
        trial = _predict(cyc, cfg) if history is None else history.step(theta)
        nxt = _evaluate_cycle(trial, J, cfg, vext, cyc.state)
        if nxt.dual < cyc.dual - ENERGY_NOISE_REL * (1.0 + abs(cyc.dual)):
            trace.rejected_trials += 1
            if history is None or history.pairs:
                history = _Anderson(grid, cyc.U_in, cyc.state.U)
            elif theta > THETA_MIN:
                theta *= 0.5
            else:
                break
            continue
        cyc, last = nxt, residual
        residual = _map_residual(cyc, grid)
        if history is None:
            trace.predicted_steps += 1
            trace.append(residual, cyc.state.mu, cyc.state.energy.total_direct, 1.0)
            if residual > last / PREDICT_MIN_CUT:
                history = _Anderson(grid, cyc.U_in, cyc.state.U)
        else:
            history.push(cyc.U_in, cyc.state.U)
            trace.append(residual, cyc.state.mu, cyc.state.energy.total_direct, theta)
    trace.final_residual = residual
    trace.converged = residual <= cfg.fp_tol
    return cyc.state, trace


def solve_equilibrium(cfg: SolverConfig) -> tuple[EquilibriumState, IterationTrace]:
    """Self-consistent state by the accelerated fixed-point iteration.

    Returns the final state and the per-iteration trace; trace.converged
    tells whether the map residual of the returned state's cycle met
    cfg.fp_tol within cfg.max_outer steps.  The state always satisfies the
    mass and occupy_modes identities; the residual certifies
    Schrodinger-Poisson consistency.
    """
    if cfg.init_kind == "zero":
        U0 = np.zeros(cfg.grid.volume_shape)
    else:
        U0 = random_smooth_potential(cfg.grid, cfg.init_seed)
    return fixed_point(U0, cfg)
