"""Structural inequalities verified on a solved equilibrium.

Four families of checks certify what the theory promises:

* the weighted band-index bound for energy-sorted admissible pairs, with
  the explicit constants 3/pi^2 and 6/pi^2;
* the chemical-potential bound mu <= (4/M)(F + T beta'(1) M);
* the free-energy coercivity inequality against occupation bumps and
  two-mode rotations (the engine behind uniqueness);
* the stability gap: half the squared field-gradient distance stays below
  (1 + mu) times the free-energy/mass offset of the perturbation.

check_perturbation evaluates each perturbed pair once and returns the
coercivity and stability-gap reports together.  check_weighted_l1 and
check_perturbation rearrange the pair they are given into the order their
inequalities cover (bands by increasing confined kinetic energy, occupations
nonincreasing in the band index), so the random pairs and bumps go in unsorted.
"""

from subbandeq import Grid, OccupancyModel, SolverConfig, solve_equilibrium
from subbandeq.rearrange import RadialGrid
from subbandeq.verify import (
    check_mu_bound,
    check_perturbation,
    check_weighted_l1,
    grid_consistent_base,
    mode_rotation,
    occupation_bump,
    random_test_pair,
)

grid = Grid(10, 10, 32)
model = OccupancyModel(T=0.2, p=2.0)
cfg = SolverConfig(
    M_target=1.0, model=model, grid=grid, vext_kind="zwell",
    vext_amplitude=8.0, fp_tol=1e-10,
)
state, trace = solve_equilibrium(cfg)
print(f"solved: mu = {state.mu:.6f}, F = {state.energy.total_direct:.6f}")

print("\nWeighted band-index bound on 10 random energy-sorted pairs:")
vgrid = RadialGrid.uniform(3.0, 96)
for seed in range(10):
    r = check_weighted_l1(random_test_pair(grid, 4, vgrid, seed), grid, model)
    print(
        f"  seed {seed}: sum j^2|f_j| = {r.lhs:9.4f}"
        f"  <= (3/pi^2) mixed = {r.details['middle']:9.4f}"
        f"  <= (6/pi^2) F = {r.rhs:9.4f}   [{'ok' if r.passed else 'VIOLATED'}]"
    )

r = check_mu_bound(state, model, cfg.M_target)
print(f"\nChemical potential bound: mu = {r.lhs:.4f} <= {r.rhs:.4f}  "
      f"[{'ok' if r.passed else 'VIOLATED'}]")

print("\nCoercivity against perturbations of the equilibrium:")
base = grid_consistent_base(state, cfg)
cases = [("bump eps=1e-1", occupation_bump(base, 1e-1, seed=1)),
         ("bump eps=1e-2", occupation_bump(base, 1e-2, seed=2)),
         ("rotation 0.1", mode_rotation(base, 0.1)),
         ("rotation 0.2", mode_rotation(base, 0.2))]
for label, pert in cases:
    rc, _ = check_perturbation(base, pert)
    print(
        f"  {label:14s}: F excess = {rc.lhs:+.4e}  >=  gap + multiplier term"
        f" = {rc.rhs:+.4e}   [{'ok' if rc.passed else 'VIOLATED'}]"
    )

print("\nStability gap across shrinking perturbations:")
for eps in (1e-1, 1e-2, 1e-3):
    _, rs = check_perturbation(base, occupation_bump(base, eps, seed=5))
    print(
        f"  eps = {eps:g}: (1/2)|grad dU|^2 = {rs.lhs:.3e}"
        f"  <=  (1+mu) delta = {rs.rhs:.3e}"
        f"   ratio {rs.ratio:.2e}   [{'ok' if rs.passed else 'VIOLATED'}]"
    )
print("the gap shrinks linearly with delta, the free-energy/mass offset")
