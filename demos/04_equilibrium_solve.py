"""Full self-consistent solve on the unit slab with a z-confinement barrier.

The outer iteration (frozen-mode predicted steps, then Anderson-accelerated
ones) alternates slice eigensolves, a chemical potential solve for the mass
constraint, density assembly and a Poisson solve.  The run below prints the iteration trace, the converged free-energy
breakdown evaluated by both routes, and the subband structure.
"""

import numpy as np

from subbandeq import (
    Grid,
    OccupancyModel,
    SolverConfig,
    solve_equilibrium,
)
from subbandeq.verify import check_subband_structure

cfg = SolverConfig(
    M_target=1.0,
    model=OccupancyModel(T=0.2, p=2.0),
    grid=Grid(16, 16, 48),
    vext_kind="zwell",
    vext_amplitude=8.0,
    fp_tol=1e-9,
)
state, trace = solve_equilibrium(cfg)

print("Outer iteration trace (frozen-mode predicted steps record theta 1):")
print("  it   residual      mu          F_total        theta")
for i in range(trace.iterations):
    print(
        f"  {i + 1:3d}  {trace.residuals[i]:.3e}  {trace.mus[i]:.8f}"
        f"  {trace.free_energies[i]:.10f}  {trace.thetas[i]:.3f}"
    )
print(f"converged: {trace.converged} in {trace.iterations} iterations, "
      f"{trace.predicted_steps} of them predicted")

e = state.energy
print("\nFree-energy breakdown:")
print(f"  velocity kinetic   {e.kinetic_v:.10f}")
print(f"  confined kinetic   {e.quantum_kinetic:.10f}")
print(f"  external pairing   {e.vext_pairing:.10f}")
print(f"  field energy       {e.field_energy:.10f}")
print(f"  entropy term       {e.casimir:.10f}")
print(f"  band-resolved route  {e.total_primal:.12f}")
print(f"  direct route         {e.total_direct:.12f}")
print(f"  agreement            {abs(e.total_primal - e.total_direct):.2e}")

structure = check_subband_structure(state)
assert structure.passed, structure
print("\nSubband structure:")
print(f"  chemical potential mu = {state.mu:.8f}")
print(f"  active bands {state.j_active} (cap sqrt(3 mu)/pi + 1 = {structure.rhs:.3f})")
lam_ranges = [
    (j + 1, float(np.min(state.spectrum.lam[:, :, j])), float(np.max(state.spectrum.lam[:, :, j])))
    for j in range(state.spectrum.J)
]
for j, lo, hi in lam_ranges:
    occupied = "occupied" if lo < state.mu else "empty"
    print(f"  band {j}: lambda in [{lo:.4f}, {hi:.4f}]  ({occupied})")
print(f"  total mass {state.mass(cfg.grid):.12f} (target {cfg.M_target})")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    g = cfg.grid
    mid = g.ny2 // 2
    fig, axes = plt.subplots(1, 2, figsize=(10, 3.6), constrained_layout=True)
    im0 = axes[0].imshow(
        state.rho[:, mid, :].T, origin="lower", aspect="auto",
        extent=[g.hy1, g.L1 - g.hy1, 0, 1],
    )
    axes[0].set_title("density through the mid-plane")
    axes[0].set_xlabel("y1"); axes[0].set_ylabel("z")
    fig.colorbar(im0, ax=axes[0])
    im1 = axes[1].imshow(
        state.U[:, mid, :].T, origin="lower", aspect="auto",
        extent=[g.hy1, g.L1 - g.hy1, 0, 1],
    )
    axes[1].set_title("induced potential")
    axes[1].set_xlabel("y1"); axes[1].set_ylabel("z")
    fig.colorbar(im1, ax=axes[1])
    fig.savefig("demos_equilibrium_fields.png", dpi=120)
    print("\nwrote demos_equilibrium_fields.png")
except ImportError:
    print("\nmatplotlib not available; skipped the figure")
