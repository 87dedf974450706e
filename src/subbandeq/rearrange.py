"""Band-index rearrangements of general admissible pairs.

An admissible pair (f, chi) holds J kinetic occupations f_j(y, |v|) sampled
on a radial speed grid together with per-slice orthonormal z-modes chi_j.
Two slice-wise permutations of the band index matter:

* sorting bands so the confined kinetic energies |d chi_j/dz|^2 do not
  decrease in j (permutes occupations and modes together), and
* sorting the occupations at every (y, speed) point so f_j does not
  increase in j (the permutation depends on the velocity, so only f moves;
  functionals that pair f_j with mode-dependent weights stay invariant
  when evaluated jointly through the permutation).

Both leave mass, entropy, total density and free energy unchanged, band
sums being permutations of the same summands.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .grid import Grid
from .occupancy import OccupancyModel
from .poisson import dirichlet_energy, solve_poisson
from .schrodinger import (
    band_sum_density,
    band_total,
    external_pairing,
    profile_kinetic_energy,
    zero_extend,
)


@dataclass(frozen=True)
class RadialGrid:
    """Speed samples r_k with weights turning sums into plane integrals.

    weights[k] already contain the 2 pi r Jacobian and the trapezoid rule,
    so  int_{R^2} g(|v|) dv  ~=  sum_k weights[k] * g(r[k]).
    """

    r: np.ndarray
    weights: np.ndarray

    @staticmethod
    def uniform(v_max: float, nv: int) -> "RadialGrid":
        if not (0.0 < v_max < np.inf and nv >= 2):
            raise ValueError("need finite positive v_max and at least 2 intervals")
        r = np.linspace(0.0, v_max, nv + 1)
        trap = np.full(nv + 1, v_max / nv)
        trap[0] = trap[-1] = 0.5 * v_max / nv
        return RadialGrid(r=r, weights=2.0 * np.pi * r * trap)

    @property
    def n_nodes(self) -> int:
        return self.r.shape[0]


@dataclass(frozen=True)
class AdmissiblePair:
    """General admissible pair with radial velocity sampling.

    f:   (ny1, ny2, J, nv) occupations in [0, 1]
    chi: (ny1, ny2, J, nz-1) interior z-samples, finite and orthonormal per slice
    k:   (ny1, ny2, J) profile_kinetic_energy(chi, grid), or None: formed on use
    """

    f: np.ndarray
    chi: np.ndarray
    vgrid: RadialGrid
    k: np.ndarray | None = None

    def __post_init__(self):
        if self.f.ndim != 4 or self.chi.ndim != 4:
            raise ValueError("admissible pair arrays have wrong rank")
        if self.f.shape[:3] != self.chi.shape[:3] or (
            self.k is not None and self.k.shape != self.f.shape[:3]
        ):
            raise ValueError("admissible pair arrays disagree on (ny1, ny2, J)")
        if self.f.shape[3] != self.vgrid.n_nodes:
            raise ValueError("occupations do not match the radial grid")
        if not (self.f.min() >= 0.0 and self.f.max() <= 1.0):
            raise ValueError("occupations must lie in [0, 1]")
        if not np.isfinite(self.chi).all():
            raise ValueError("modes must be finite")

    @property
    def J(self) -> int:
        return self.f.shape[2]


# ---- functionals of a pair ---------------------------------------------------


def band_densities(pair: AdmissiblePair) -> np.ndarray:
    """rho_{f_j}(y) = int f_j dv on the radial grid, shape (ny1, ny2, J)."""
    return np.einsum("abjv,v->abj", pair.f, pair.vgrid.weights)


def pair_mass(pair: AdmissiblePair, grid: Grid) -> float:
    return float(np.sum(band_densities(pair)) * grid.hy1 * grid.hy2)


def pair_casimir(pair: AdmissiblePair, grid: Grid, model: OccupancyModel) -> float:
    """sum_j int beta(f_j) dy dv (without the temperature factor)."""
    bsum = np.einsum("abjv,v->", model.beta(pair.f), pair.vgrid.weights)
    return float(bsum * grid.hy1 * grid.hy2)


def velocity_kinetic(pair: AdmissiblePair, grid: Grid) -> float:
    """sum_j int (|v|^2/2) f_j dy dv."""
    u = 0.5 * pair.vgrid.r**2
    return float(np.einsum("abjv,v->", pair.f, pair.vgrid.weights * u) * grid.hy1 * grid.hy2)


def pair_confined_kinetic(pair: AdmissiblePair, rho_j: np.ndarray, grid: Grid) -> float:
    """confined_kinetic(rho_j, pair.chi, grid), on the energies pair.k when the pair has them."""
    k = profile_kinetic_energy(pair.chi, grid) if pair.k is None else pair.k
    return 0.5 * band_total(k * rho_j) * (grid.hy1 * grid.hy2)


def pair_free_energy(
    pair: AdmissiblePair,
    grid: Grid,
    model: OccupancyModel,
    vext: np.ndarray | None = None,
) -> tuple[float, np.ndarray]:
    """Free energy of a pair and the potential its density induces.

    Kinetic + confined kinetic + external pairing + field + T * Casimir,
    all on the pair's own quadratures.
    """
    rho_j, chi2 = band_densities(pair), zero_extend(pair.chi) ** 2
    U = solve_poisson(band_sum_density(rho_j, chi2), grid)
    total = (
        velocity_kinetic(pair, grid)
        + pair_confined_kinetic(pair, rho_j, grid)
        + 0.5 * dirichlet_energy(U, grid)
        + model.T * pair_casimir(pair, grid, model)
    )
    if vext is not None:
        total += external_pairing(rho_j, chi2, vext, grid)
    return float(total), U


# ---- the two rearrangements --------------------------------------------------


def rearrange_energy_increasing(pair: AdmissiblePair, grid: Grid) -> AdmissiblePair:
    """Per slice, permute bands so |d chi_j/dz|^2 is nondecreasing in j.

    Occupations, modes and k move together, one row gather each: the bytes
    of np.take_along_axis at a fraction of its cost.  Stable sort with index
    tie-break, hence deterministic under equal energies.
    """
    k = profile_kinetic_energy(pair.chi, grid) if pair.k is None else pair.k
    first = np.arange(0, k.size, k.shape[2]).reshape(k.shape[:2] + (1,))  # row of band 0
    rows = (first + np.argsort(k, axis=2, kind="stable")).ravel()
    f, chi, k = (a.reshape(rows.size, -1)[rows].reshape(a.shape) for a in (pair.f, pair.chi, k))
    return replace(pair, f=f, chi=chi, k=k)


def occupation_sort_permutation(pair: AdmissiblePair) -> np.ndarray:
    """Band permutation making f_j nonincreasing at each (y, speed) point."""
    return np.argsort(-pair.f, axis=2, kind="stable")


def rearrange_occupation_decreasing(pair: AdmissiblePair) -> AdmissiblePair:
    """Sort the J occupations nonincreasing at every (y, speed) point.

    The permutation varies with the speed, so only f is reordered; modes
    keep their band labels.  An odd-even transposition network of
    np.maximum/np.minimum over neighbouring (ny1, ny2, nv) band slabs does the
    sort several times faster than np.sort on the short band axis.  Each
    returns one of its arguments, so the bytes are -np.sort(-f, axis=2)'s
    (bar zeros of both signs, whose order np.sort leaves open too; f holds no NaN).
    """
    slabs = [pair.f[:, :, j] for j in range(pair.J)]
    for r in range(pair.J):
        for j in range(r % 2, pair.J - 1, 2):
            a, b = slabs[j], slabs[j + 1]
            slabs[j], slabs[j + 1] = np.maximum(a, b), np.minimum(a, b)
    return replace(pair, f=np.stack(slabs, axis=2))


def joint_band_densities(pair: AdmissiblePair, order: np.ndarray) -> np.ndarray:
    """Band densities when f and the modes are permuted jointly, shape (ny1, ny2, J).

    order has the shape of f and gives, at each (y, speed) point, the band
    whose (occupation, mode) pair lands at slot j.  The occupation in slot
    j is credited to the mode it traveled with, band order[..., j, v],
    through a one-hot (slot, band) contraction over the speed nodes.  Used to
    verify that a speed-dependent rearrangement leaves the mode-weighted
    integrals untouched.
    """
    ny1, ny2, J, nv = pair.f.shape
    cell = np.arange(0, pair.f.size, J * nv).reshape(ny1, ny2, 1, 1) + np.arange(nv)
    f_perm = pair.f.reshape(-1)[cell + order * nv]
    onehot = np.stack([order == i for i in range(J)], axis=-1)
    return np.einsum("abjv,abjvi,v->abi", f_perm, onehot, pair.vgrid.weights)
