"""Self-consistent kinetic/quantum subband equilibria on a thin slab.

The library couples a per-slice confined eigenproblem, a mass-constrained
occupation law, and a mixed-boundary Poisson solve into an
Anderson-accelerated fixed-point iteration, and ships executable checks of
the structural properties of the resulting equilibria (finite band count,
monotone spectrum, chemical-potential bound, uniqueness of the potential,
free-energy coercivity and the stability gap).
"""

from .grid import Grid
from .occupancy import OccupancyModel, solve_mu, subband_mass
from .schrodinger import SubbandSpectrum, solve_slice, solve_slices
from .poisson import dirichlet_energy, potential_pairing, solve_poisson
from .equilibrium import (
    EquilibriumState,
    FreeEnergyBreakdown,
    IterationTrace,
    SolverConfig,
    external_potential,
    solve_equilibrium,
)
from .rearrange import (
    RadialGrid,
    AdmissiblePair,
    rearrange_energy_increasing,
    rearrange_occupation_decreasing,
)
from .verify import choose_J_max

__all__ = [
    "Grid",
    "OccupancyModel",
    "solve_mu",
    "subband_mass",
    "SubbandSpectrum",
    "solve_slice",
    "solve_slices",
    "dirichlet_energy",
    "potential_pairing",
    "solve_poisson",
    "EquilibriumState",
    "FreeEnergyBreakdown",
    "IterationTrace",
    "SolverConfig",
    "choose_J_max",
    "external_potential",
    "solve_equilibrium",
    "RadialGrid",
    "AdmissiblePair",
    "rearrange_energy_increasing",
    "rearrange_occupation_decreasing",
]

__version__ = "0.1.0"
