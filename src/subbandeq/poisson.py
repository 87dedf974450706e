"""Mixed-boundary Poisson solve on the slab.

-Laplace(U) = rho with U = 0 on the lateral boundary and dU/dz = 0 on the
top and bottom faces.  The operator is assembled as G^T W G for the
forward-difference gradient G and edge quadrature weights W (trapezoid in
z), which makes it symmetric positive definite, gives the mirrored-ghost
Neumann closure for free, and makes the discrete weak-form identity

    int U rho = int |grad U|^2

hold to rounding rather than to discretization order.  The operator is the
Kronecker sum (hy2/hy1) T1 x I x Wz + (hy1/hy2) I x T2 x Wz + (hy1 hy2/hz)
I x I x Kz of Dirichlet second differences, trapezoid weights Wz and the
Neumann stiffness Kz.  Closed-form type-I sine (lateral) and cosine (z)
bases diagonalize it, so a solve is a forward transform, a diagonal divide
and the inverse transform (Buzbee, Golub & Nielson, SIAM J. Numer. Anal. 7,
1970): direct, exact to rounding and bitwise reproducible.  Fields in and
out are float arrays of Grid.volume_shape; inputs must match it and be finite.
"""

from __future__ import annotations

import functools

import numpy as np

from .grid import Grid, _volume_values


def apply_operator(U: np.ndarray, grid: Grid) -> np.ndarray:
    """Quadrature-weighted 7-point operator (G^T W G) applied to node values."""
    hy1, hy2, hz = grid.hy1, grid.hy2, grid.hz
    wz = grid.z_weights()[None, None, :]
    out = np.zeros_like(U)

    c1 = (hy2 / hy1) * wz
    out += 2.0 * c1 * U
    out[1:, :, :] -= (c1 * U)[:-1, :, :]
    out[:-1, :, :] -= (c1 * U)[1:, :, :]

    c2 = (hy1 / hy2) * wz
    out += 2.0 * c2 * U
    out[:, 1:, :] -= (c2 * U)[:, :-1, :]
    out[:, :-1, :] -= (c2 * U)[:, 1:, :]

    cz = hy1 * hy2 / hz
    dz = np.diff(U, axis=2)
    out[:, :, :-1] -= cz * dz
    out[:, :, 1:] += cz * dz
    return out


def _sine_basis(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric orthonormal type-I sine matrix and the eigenvalues of the
    n x n tridiag(-1, 2, -1) it diagonalizes."""
    k = np.arange(1, n + 1)
    # i*k is reduced modulo the period first, so every argument stays small
    S = np.sqrt(2.0 / (n + 1)) * np.sin(np.pi * (np.outer(k, k) % (2 * n + 2)) / (n + 1))
    return S, 4.0 * np.sin(0.5 * np.pi * k / (n + 1)) ** 2


def neumann_cosine_basis(grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """Type-I cosine basis V and eigenvalues s of the z pencil (Kz, Wz).

    Columns k = 0..nz: V[m, k] = c_k cos(pi m k / nz) with c_k = sqrt(2)
    except c_0 = c_nz = 1, so that V^T Wz V = I and Kz V = Wz V diag(s)
    with s_k = (2 - 2 cos(pi k / nz)) / hz.
    """
    nz = grid.nz
    k = np.arange(nz + 1)
    scale = np.where((k == 0) | (k == nz), 1.0, np.sqrt(2.0))
    V = np.cos(np.pi * (np.outer(k, k) % (2 * nz)) / nz) * scale[None, :]
    return V, 4.0 * np.sin(0.5 * np.pi * k / nz) ** 2 / grid.hz


@functools.lru_cache(maxsize=16)
def _spectral_factors(grid: Grid) -> tuple[np.ndarray, ...]:
    """Per-grid factors of one solve: S1, S2, V and the inverse eigenvalues."""
    hy1, hy2 = grid.hy1, grid.hy2
    S1, lam1 = _sine_basis(grid.ny1)
    S2, lam2 = _sine_basis(grid.ny2)
    V, s = neumann_cosine_basis(grid)
    sigma = (hy2 / hy1) * lam1[:, None] + (hy1 / hy2) * lam2[None, :]
    inv = 1.0 / (sigma[:, :, None] + (hy1 * hy2 / grid.hz) * s[None, None, :])
    factors = (S1, S2, V, inv)
    for a in factors:
        a.setflags(write=False)
    return factors


def _transform(x: np.ndarray, S1: np.ndarray, S2: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """Apply S1 along axis 0, S2 along axis 1 and x -> x Z along axis 2."""
    n1, n2, nzp = x.shape
    x = (x.reshape(n1 * n2, nzp) @ Z).reshape(n1, n2, nzp)
    x = np.matmul(S2, x)
    return (S1 @ x.reshape(n1, n2 * nzp)).reshape(n1, n2, nzp)


def solve_poisson(rho, grid: Grid) -> np.ndarray:
    """Solve the mixed Dirichlet/Neumann problem for a given density.

    Direct: A U = (node volumes) * rho holds to rounding.
    """
    S1, S2, V, inv = _spectral_factors(grid)
    coeffs = _transform(grid.node_volumes() * _volume_values(rho, grid), S1, S2, V)
    coeffs *= inv
    return _transform(coeffs, S1, S2, V.T)


def dirichlet_energy(U, grid: Grid) -> float:
    """Discrete int |grad U|^2 with the same edge weights as the operator."""
    v = _volume_values(U, grid)
    hy1, hy2, hz = grid.hy1, grid.hy2, grid.hz
    w = grid.node_volumes()

    d1 = np.diff(v, axis=0, prepend=0.0, append=0.0) / hy1
    e1 = float(np.sum(d1 * d1 * w))
    d2 = np.diff(v, axis=1, prepend=0.0, append=0.0) / hy2
    e2 = float(np.sum(d2 * d2 * w))
    d3 = np.diff(v, axis=2) / hz
    e3 = float(np.sum(d3 * d3) * hy1 * hy2 * hz)
    return e1 + e2 + e3


def potential_pairing(U, rho, grid: Grid) -> float:
    """Discrete int U rho over the slab (node quadrature)."""
    u = _volume_values(U, grid)
    r = _volume_values(rho, grid)
    return float(np.sum(u * r * grid.node_volumes()))


def gradient_distance(U1, U2, grid: Grid) -> float:
    """|grad(U1 - U2)|_{L2}, the metric in which equilibria are unique."""
    v = _volume_values(U1, grid) - _volume_values(U2, grid)
    return float(np.sqrt(dirichlet_energy(v, grid)))
