"""Mixed-boundary Poisson solve: manufactured convergence and weak identity.

U*(y, z) = sin(pi y1) sin(pi y2) cos(pi z) vanishes on the lateral boundary
and has zero z-derivative on the top and bottom faces, so it satisfies both
boundary conditions; feeding the matching density 3 pi^2 U* back through
the solver recovers it at second order.  Because the discrete gradient and
divergence are exact adjoints and the solve is direct, int U rho =
int |grad U|^2 holds to rounding on every solve, not just in the limit.
"""

import numpy as np

from subbandeq import Grid, dirichlet_energy, potential_pairing, solve_poisson
from subbandeq.validation import manufactured_poisson_case

print("Manufactured solution on n^3-equivalent grids:")
print("  n    L_inf error    ratio    weak-form defect")
prev = None
for n in (8, 16, 32, 64):
    grid, u_star, rho = manufactured_poisson_case(n)
    U = solve_poisson(rho, grid)
    err = np.max(np.abs(U - u_star))
    e = dirichlet_energy(U, grid)
    defect = abs(potential_pairing(U, rho, grid) - e) / e
    ratio = "" if prev is None else f"{prev / err:.3f}"
    print(f"  {n:3d}   {err:.4e}    {ratio:>5s}    {defect:.2e}")
    prev = err

print("\nPositivity: a nonnegative density induces a nonnegative potential")
rng = np.random.default_rng(3)
g = Grid(12, 12, 24)
rho = rng.uniform(0.0, 1.0, g.volume_shape)
U = solve_poisson(rho, g)
print(f"  min U = {np.min(U):.3e} for a random density in [0, 1]")

print("\nLinearity to rounding:")
r1 = rng.standard_normal(g.volume_shape)
r2 = rng.standard_normal(g.volume_shape)
lhs = solve_poisson(2.0 * r1 + 3.0 * r2, g)
rhs = 2.0 * solve_poisson(r1, g) + 3.0 * solve_poisson(r2, g)
print(f"  |solve(2 r1 + 3 r2) - 2 solve(r1) - 3 solve(r2)|_max = {np.max(np.abs(lhs - rhs)):.2e}")
