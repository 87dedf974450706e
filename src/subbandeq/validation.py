"""Discretization validation: analytic oracles for the two solvers and profiles.

Three self-contained studies used by the command line and the test suite:
eigenvalues of the free slice Hamiltonian against their closed form, grid
convergence of the Poisson solve on a manufactured solution, and the
occupancy profiles against tanh-sinh quadrature.
"""

from __future__ import annotations

import math

import numpy as np

from .grid import Grid
from .occupancy import OccupancyModel, profiles_by_quadrature
from .poisson import dirichlet_energy, potential_pairing, solve_poisson
from .schrodinger import free_mode_eigenvalue, solve_slice


def eigensolver_study() -> dict:
    """Free-well eigenvalues, 10 modes at nz = 200: exact discrete formula and continuum limit."""
    grid = Grid(2, 2, 200)
    lam, _ = solve_slice(np.zeros(grid.nz - 1), 10, grid)
    exact = free_mode_eigenvalue(np.arange(1, 11), grid)
    rel = np.abs(lam - exact) / exact
    continuum_err = abs(lam[0] - math.pi**2 / 2.0)
    return {
        "nz": grid.nz,
        "max_relative_error": float(np.max(rel)),
        "continuum_error_mode1": float(continuum_err),
        "pass": bool(np.max(rel) <= 1e-12 and continuum_err <= 5e-4),
    }


def manufactured_poisson_case(n: int) -> tuple[Grid, np.ndarray, np.ndarray]:
    """U*(y, z) = sin(pi y1) sin(pi y2) cos(pi z) on the unit slab.

    Satisfies both boundary conditions; the matching density is 3 pi^2 U*.
    """
    grid = Grid(n - 1, n - 1, n)
    y1 = grid.y1_nodes()[:, None, None]
    y2 = grid.y2_nodes()[None, :, None]
    z = grid.z_nodes()[None, None, :]
    u_star = np.sin(np.pi * y1) * np.sin(np.pi * y2) * np.cos(np.pi * z)
    return grid, u_star, 3.0 * math.pi**2 * u_star


def poisson_convergence_study() -> dict:
    """L-infinity error against the manufactured solution at n = 16, 32, 64.

    Also records the weak-form identity defect of every solve.
    """
    resolutions = (16, 32, 64)
    errors = []
    weak_defects = []
    for n in resolutions:
        grid, u_star, rho = manufactured_poisson_case(n)
        U = solve_poisson(rho, grid)
        errors.append(float(np.max(np.abs(U.values - u_star))))
        e = dirichlet_energy(U, grid)
        weak_defects.append(abs(potential_pairing(U, rho, grid) - e) / e)
    ratios = [errors[i] / errors[i + 1] for i in range(len(errors) - 1)]
    ok = all(3.5 <= r <= 4.5 for r in ratios) and all(d <= 1e-8 for d in weak_defects)
    return {
        "resolutions": list(resolutions),
        "linf_errors": errors,
        "error_ratios": ratios,
        "weak_form_defects": [float(d) for d in weak_defects],
        "pass": bool(ok),
    }


def profile_study() -> dict:
    """Closed-form occupancy profiles against tanh-sinh quadrature."""
    worst = 0.0
    for T in (0.0, 0.1, 1.0):
        for p in (1.5, 2.0, 3.0):
            model = OccupancyModel(T=T, p=p)
            for a in np.linspace(-1.0, 10.0, 45):
                g, k, b = profiles_by_quadrature(model, float(a))
                worst = max(
                    worst,
                    abs(model.profile_g(a) - g),
                    abs(model.profile_k(a) - k),
                    abs(model.profile_b(a) - b),
                )
    return {"max_abs_difference": float(worst), "pass": bool(worst <= 1e-10)}


def run_validation() -> dict:
    eig = eigensolver_study()
    poi = poisson_convergence_study()
    prof = profile_study()
    return {
        "eigensolver": eig,
        "poisson_convergence": poi,
        "occupancy_profiles": prof,
        "pass": bool(eig["pass"] and poi["pass"] and prof["pass"]),
    }
