"""Confined-direction eigensolver: exact discrete spectrum and stability.

The slice Hamiltonian -(1/2) d^2/dz^2 + W(z) with zero walls at z = 0, 1 is
diagonalized on each lateral node.  For W = 0 the discrete eigenvalues are
known in closed form, which pins the solver to machine accuracy; perturbing
the potential moves each eigenvalue by at most the sup-norm of the change.
"""

import numpy as np

from subbandeq import Grid, solve_slice
from subbandeq.schrodinger import free_mode_eigenvalue

# --- free well: closed-form check and continuum limit -------------------------

print("Free well, nz = 200: discrete eigenvalues vs closed form")
grid = Grid(2, 2, 200)
lam, chi = solve_slice(np.zeros(grid.nz - 1), 6, grid)
exact = free_mode_eigenvalue(np.arange(1, 7), grid)
for j, (a, b) in enumerate(zip(lam, exact), start=1):
    print(f"  mode {j}: lambda = {a:.12f}   closed form = {b:.12f}   "
          f"rel err = {abs(a - b) / b:.2e}")
print(f"  continuum limit pi^2/2 = {np.pi**2 / 2:.6f}; "
      f"mode-1 gap {abs(lam[0] - np.pi**2 / 2):.2e} (order hz^2)")

print("\nRefining the z-grid quarters the continuum error:")
for nz in (25, 50, 100, 200):
    g = Grid(2, 2, nz)
    l1, _ = solve_slice(np.zeros(nz - 1), 1, g)
    print(f"  nz = {nz:4d}: |lambda_1 - pi^2/2| = {abs(l1[0] - np.pi**2 / 2):.3e}")

# --- eigenvalue stability under potential perturbations ------------------------

print("\nEigenvalue shifts under random bounded perturbations (J = 5):")
rng = np.random.default_rng(7)
g = Grid(2, 2, 64)
W = rng.uniform(0.0, 8.0, g.nz - 1)
lam_W, _ = solve_slice(W, 5, g)
print("  sup |delta W|   max_j |lambda shift|   L1 |delta W|")
for amp in (0.5, 0.1, 0.02):
    delta = rng.uniform(-amp, amp, g.nz - 1)
    gaps = np.abs(solve_slice(W + delta, 5, g)[0] - lam_W)
    sup = np.max(np.abs(delta))
    l1 = g.hz * np.sum(np.abs(delta))
    # the sup-norm bound is sharp and assertable; the L1 norm is reported
    # for scale (theory also gives an L1-controlled bound with an
    # unspecified constant)
    print(f"  {sup:12.4f}   {np.max(gaps):18.6f}   {l1:10.4f}")
    assert np.max(gaps) <= sup * (1 + 1e-12)
print("  every shift is within the sup-norm bound, as the min-max principle demands")
