"""Confined-direction eigenproblem, solved slice by slice.

On every lateral node the z-profile of the potential defines a 1D
Hamiltonian -(1/2) d^2/dz^2 + W(z) with zero boundary values at z = 0, 1.
Three-point differences on the interior z-nodes give a symmetric
tridiagonal matrix T (diagonal 1/hz^2 + W_k, off-diagonal -1/(2 hz^2)) whose
spectrum is real and simple.  Rayleigh-quotient iteration runs on all
(slice, band) pairs of a block at once by vectorized LDL^T solves, from the
previous cycle's modes, with sine modes (exact for W = 0) for missing bands
and slices without a guess.  A slice is kept if each band's residual is at
most rho = 8 eps ||T||, the intervals sigma_j -/+ rho increase without
overlapping, and the Sturm count (negative LDL^T pivots) at sigma_{J-1} + rho
is J; every other slice goes to dense eigh.  The pivots run unguarded, and
columns whose pivots reach the eps ||T|| guard are recomputed with it, so
results are those of the guarded recurrence.  A shared Rayleigh polish takes
the eigenvalues to machine accuracy.  A slice's result depends on its own
potential and guess, not on its block or neighbours: a sweep works on
C-ordered (z, pair) columns, gathering the active ones once, and adds every
z-sum row by row over at least two columns (numpy sums a lone column pairwise).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Grid


def free_mode_eigenvalue(j, grid: Grid):
    """Discrete eigenvalue of -(1/2) d^2/dz^2 for W = 0: (1 - cos(pi j hz)) / hz^2."""
    hz = grid.hz
    j = np.asarray(j, dtype=float)
    out = (1.0 - np.cos(np.pi * j * hz)) / hz**2
    return out if out.ndim else float(out)


def sine_modes(J: int, grid: Grid) -> np.ndarray:
    """First J discrete sine modes; exactly orthonormal on the interior nodes."""
    z = grid.z_nodes()[1:-1]
    j = np.arange(1, J + 1)[:, None]
    return np.sqrt(2.0) * np.sin(np.pi * j * z[None, :])


@dataclass(frozen=True)
class SubbandSpectrum:
    """Lowest J eigenpairs on every lateral slice.

    lam has shape (ny1, ny2, J) with lam[..., j] strictly increasing in j;
    chi has shape (ny1, ny2, J, nz-1), the interior z-samples of the
    L2(0,1)-normalized modes (zero-extended at z = 0, 1), sign-fixed to be
    positive at the first interior node.
    """

    lam: np.ndarray
    chi: np.ndarray

    @property
    def J(self) -> int:
        return self.lam.shape[2]

    def validate(self, grid: Grid) -> None:
        if self.lam.shape[:2] != grid.lateral_shape or self.chi.shape[3] != grid.nz - 1:
            raise ValueError("spectrum shape does not match grid")
        if not np.all(np.diff(self.lam, axis=2) > 1e-10):
            raise ValueError("eigenvalues are not strictly increasing in the band index")
        norms = grid.hz * np.sum(self.chi**2, axis=3)
        if np.max(np.abs(norms - 1.0)) > 1e-10:
            raise ValueError("modes are not L2-normalized")
        check_orthonormal(self.chi, grid)


def check_orthonormal(chi: np.ndarray, grid: Grid) -> None:
    """ValueError unless the modes chi (ny1, ny2, J, nz-1) are orthonormal per slice to 1e-8."""
    gram = grid.hz * np.einsum("abjz,abkz->abjk", chi, chi)
    if np.max(np.abs(gram - np.eye(chi.shape[2]))) > 1e-8:
        raise ValueError("modes are not orthonormal per slice")


def profile_kinetic_energy(chi: np.ndarray, grid: Grid) -> np.ndarray:
    """Forward-difference |d/dz|^2 form with zero end values.

    chi holds interior z-samples in its last axis.  This is the quadratic
    form of the discrete Hamiltonian, so eigenvalue = (1/2) * this + int W chi^2
    holds exactly for computed eigenpairs.
    """
    chi = np.asarray(chi, dtype=float)
    d = np.diff(chi, axis=-1)
    edge = np.sum(d * d, axis=-1)
    edge = edge + np.take(chi, 0, axis=-1) ** 2 + np.take(chi, -1, axis=-1) ** 2
    return edge / grid.hz


# ---- mode-weighted integrals ---------------------------------------------------
# The solver's band densities rho_j = 2 pi G(mu - lambda_j) and an admissible
# pair's rho_j = int f_j dv meet the modes only through the functions below,
# so both sides integrate over z with one quadrature.  chi holds the modes'
# interior z-samples, as SubbandSpectrum and AdmissiblePair store them; the
# modes vanish at z = 0, 1, so these integrals run over the interior nodes.


def band_sum_density(rho_j: np.ndarray, chi: np.ndarray) -> np.ndarray:
    """sum_j rho_j(y) chi_j(x)^2 on the closed z-nodes, zero at z = 0, 1: shape (ny1, ny2, nz+1)."""
    rho = np.zeros(chi.shape[:2] + (chi.shape[3] + 2,))
    np.einsum("abj,abjz->abz", rho_j, chi**2, out=rho[..., 1:-1])
    return rho


def band_total(x: np.ndarray) -> float:
    """Sum of x (ny1, ny2, J), bands first and in order: empty trailing bands change no digit."""
    return float(np.sum(np.cumsum(x, axis=2)[..., -1]))


def confined_kinetic(rho_j: np.ndarray, k: np.ndarray, grid: Grid) -> float:
    """(1/2) sum_j int |d chi_j/dz|^2 rho_j dy, from k = profile_kinetic_energy(chi, grid)."""
    return 0.5 * band_total(k * rho_j) * (grid.hy1 * grid.hy2)


def mode_expectations(W: np.ndarray, chi: np.ndarray, grid: Grid) -> np.ndarray:
    """int W chi_j^2 dz per slice and band, shape (ny1, ny2, J); W on lateral x closed z-nodes."""
    return np.einsum("abz,abjz->abj", grid.hz * W[..., 1:-1], chi**2)


def external_pairing(rho_j: np.ndarray, chi: np.ndarray, vext: np.ndarray, grid: Grid) -> float:
    """sum_j int V chi_j^2 rho_j dx, V sampled on lateral nodes x closed z-nodes."""
    return band_total(mode_expectations(vext, chi, grid) * rho_j) * (grid.hy1 * grid.hy2)


# Slices per block: the working set is a few arrays of _BLOCK * J * (nz-1)
# doubles, whatever the slice count; the results do not depend on it.
_BLOCK = 256
_MAX_SWEEPS = 6  # warm Rayleigh-quotient sweeps before a slice falls back
_EPS = np.finfo(float).eps


def _guarded_pivots(D, e: float, guard):
    """LDL^T pivots of tridiag(e, D[:, i], e), each column i of D (n, m).

    Pivots below guard in magnitude become -guard; the negative ones count
    the eigenvalues below the shift that D carries (the Sturm count).
    """
    piv = np.empty_like(D)
    for k in range(len(D)):
        p = D[k] - e * e / piv[k - 1] if k else D[0]
        piv[k] = np.where(np.abs(p) < guard, -guard, p)
    return piv


def _ldl_pivots(A, shift, e: float, guard):
    """The pivots of _guarded_pivots(A - shift, e, guard), computed fast.

    The recurrence first runs without the guard, in place.  Up to its first
    clamp the guarded loop does the same IEEE operations in the same order,
    so a column whose pivots all have magnitude at least guard is exact as
    it stands.  Every other column (a pivot below guard, possibly zero and
    followed by inf, or NaN, which fails both comparisons) is recomputed by
    the guarded loop itself.
    """
    D = A - shift
    c = e * e
    t = np.empty_like(D[0])
    with np.errstate(divide="ignore", over="ignore"):
        for prev, row in zip(D, D[1:]):
            np.divide(c, prev, out=t)
            np.subtract(row, t, out=row)
    redo = np.flatnonzero(~np.all((D >= guard) | (D <= -guard), axis=0))
    if redo.size:
        D[:, redo] = _guarded_pivots(A[:, redo] - shift[redo], e, guard[redo])
    return D


def _zsum(P):
    """Column sums of the C-ordered P, rows in order (numpy sums a lone column pairwise)."""
    return np.add.reduce(P if P.shape[1] > 1 else np.repeat(P, 2, axis=1), axis=0)[: P.shape[1]]


def _rayleigh(A, e: float, X):
    """Rayleigh quotients and residual norms of the unit columns of X."""
    TX = A * X
    TX[:-1] += e * X[1:]
    TX[1:] += e * X[:-1]
    sigma = _zsum(X * TX)
    TX -= sigma * X
    return sigma, np.sqrt(_zsum(TX * TX))


def _warm(a, e: float, chi_g):
    """Vectors (B, J, n) from the guessed modes chi_g and the certified slices."""
    B, J, n = chi_g.shape
    A = np.repeat(a.T, J, axis=1)  # z by (slice, band) pair
    V = chi_g.reshape(B * J, n).T.copy()
    V /= np.sqrt(_zsum(V * V))
    guard = _EPS * np.repeat(np.max(np.abs(a), axis=1) + 2.0 * abs(e), J)
    rho = 8.0 * guard
    sigma, r = _rayleigh(A, e, V)
    r_prev = np.full_like(r, np.inf)
    for _ in range(_MAX_SWEEPS):
        # Done at rounding level: below eps ||T||, or below rho and no
        # longer falling (short slices have their floor near eps ||T||).
        act = np.flatnonzero(~((r <= guard) | ((r <= rho) & (4.0 * r > r_prev))))
        if act.size == 0:
            break
        # C-ordered either way: in place, or gathered by take (A[:, act] is F-ordered)
        Aa, X = (A, V) if act.size == r.size else (A.take(act, axis=1), V.take(act, axis=1))
        piv = _ldl_pivots(Aa, sigma[act], e, guard[act])
        l = e / piv
        for k in range(1, n):
            X[k] -= l[k - 1] * X[k - 1]
        X /= piv
        for k in range(n - 2, -1, -1):
            X[k] -= l[k] * X[k + 1]
        X /= np.sqrt(_zsum(X * X))
        if X is not V:
            V[:, act] = X
        r_prev[act] = r[act]
        sigma[act], r[act] = _rayleigh(Aa, e, X)
    # Each interval sigma_j -/+ rho holds an eigenvalue; disjoint, increasing
    # and with J eigenvalues below the top one's end, they hold the lowest J.
    ok = np.all((r <= rho).reshape(B, J), axis=1)
    lo, hi = (sigma - rho).reshape(B, J), (sigma + rho).reshape(B, J)
    ok &= np.all(hi[:, :-1] < lo[:, 1:], axis=1)
    ok &= np.sum(_ldl_pivots(a.T, hi[:, -1], e, guard[::J]) < 0.0, axis=0) == J
    return np.ascontiguousarray(V.T).reshape(B, J, n), ok


def _solve_block(W, J: int, grid: Grid, chi_g=None):
    """Lowest J pairs (lam, chi) of the slices W (B, n); chi_g (B, <= J, n) guesses the modes."""
    if not np.all(np.isfinite(W)):
        raise ValueError("potential profile contains non-finite values")
    if not 1 <= J <= W.shape[1]:
        raise ValueError(f"band count {J} out of range 1..{W.shape[1]}")
    e = -0.5 / grid.hz**2
    a = 1.0 / grid.hz**2 + W
    B, n = a.shape
    start = np.broadcast_to(sine_modes(J, grid), (B, J, n))
    if chi_g is not None:
        start = np.concatenate([chi_g, start[:, chi_g.shape[1] :]], axis=1)
    V, ok = _warm(a, e, start)
    for i in np.flatnonzero(~ok):
        # Last resort, O(n^3) per slice: the dense symmetric eigensolver.
        V[i] = np.linalg.eigh(np.diag(a[i]) + e * (np.eye(n, k=1) + np.eye(n, k=-1)))[1][:, :J].T
    TV = a[:, None, :] * V
    TV[..., :-1] += e * V[..., 1:]
    TV[..., 1:] += e * V[..., :-1]
    lam = np.sum(V * TV, axis=-1) / np.sum(V * V, axis=-1)
    if np.any(lam[:, 1:] < lam[:, :-1]):
        order = np.argsort(lam, axis=-1, kind="stable")
        lam = np.take_along_axis(lam, order, axis=-1)
        V = np.take_along_axis(V, order[..., None], axis=1)
    chi = V / np.sqrt(grid.hz * np.sum(V * V, axis=-1))[..., None]
    first = chi[..., 0]
    if np.any(first == 0.0):
        first = np.take_along_axis(chi, np.argmax(chi != 0.0, axis=-1)[..., None], -1)[..., 0]
    chi *= np.where(first > 0, 1.0, -1.0)[..., None]
    return lam, chi


def solve_slice(W, J: int, grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """Lowest J eigenpairs of the slice Hamiltonian, from the sine modes.

    W: potential samples on the nz-1 interior z-nodes.
    Returns (lam, chi) with lam shape (J,), chi shape (J, nz-1).
    """
    W = np.asarray(W, dtype=float)
    if W.shape != (grid.nz - 1,):
        raise ValueError(f"potential profile must have {grid.nz - 1} interior samples")
    lam, chi = _solve_block(W[None, :], J, grid)
    return lam[0], chi[0]


def solve_slices(W3, J: int, grid: Grid, guess: SubbandSpectrum | None = None) -> SubbandSpectrum:
    """Eigensolve every lateral slice of a volume potential.

    W3: (ny1, ny2, nz-1) interior-node samples.  guess, the spectrum of a
    nearby potential on this grid (the previous outer cycle's), starts the
    iteration; sine modes stand in for bands it lacks.  Without a guess, a
    laterally uniform W3 (all slices the same) is solved on one slice.
    """
    W = np.asarray(W3, dtype=float)
    ny1, ny2 = grid.lateral_shape
    n = grid.nz - 1
    if W.shape != (ny1, ny2, n):
        raise ValueError("slice potential has wrong shape")
    W = W.reshape(-1, n)
    lam, chi = np.empty((len(W), J)), np.empty((len(W), J, n))
    if guess is None and np.all(W == W[0]):
        lam[:], chi[:] = _solve_block(W[:1], J, grid)
    else:
        for i in range(0, len(W), _BLOCK):
            blk = slice(i, i + _BLOCK)
            chi_g = None if guess is None else guess.chi.reshape(len(W), guess.J, n)[blk, :J]
            lam[blk], chi[blk] = _solve_block(W[blk], J, grid, chi_g)
    return SubbandSpectrum(lam=lam.reshape(ny1, ny2, J), chi=chi.reshape(ny1, ny2, J, n))
