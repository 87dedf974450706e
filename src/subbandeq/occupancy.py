"""Statistical closure for the kinetic occupations.

A single convex entropy density beta determines, at temperature T, the
occupation law

    occ(s) = min((beta')^{-1}(s / T), 1)   for s >= 0,   0 for s < 0,

which collapses to the indicator of s >= 0 at T = 0.  Because the
equilibrium occupations depend on velocity only through |v|^2/2, every 2D
velocity integral reduces to a 1D function of the local energy gap
a = mu - lambda_j(y).  Three antiderivative-type profiles carry all of
them:

    G(a) = int_0^{a+} occ(s) ds                (number density / (2 pi))
    K(a) = int_0^{a+} (a - s) occ(s) ds        (velocity kinetic energy / (2 pi))
    B(a) = int_0^{a+} beta(occ(s)) ds          (entropy Casimir density / (2 pi))

The entropy density is the power family beta(s) = s^p / p (p > 1), for
which all three profiles have closed forms, so the velocity plane is never
discretized.  Adaptive quadrature of the occupation law (1e-12 absolute
tolerance, profiles_by_quadrature) is kept as the reference they are
tested against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

QUAD_ABS_TOL = 1e-12


@dataclass(frozen=True)
class OccupancyModel:
    """Temperature plus the power-family entropy density s^p / p."""

    T: float = 0.0
    p: float = 2.0

    def __post_init__(self):
        if self.T < 0:
            raise ValueError("temperature must be nonnegative")
        if not self.p > 1:
            raise ValueError("power family requires p > 1 (strict convexity)")

    def beta(self, s):
        s = np.asarray(s, dtype=float)
        return s**self.p / self.p

    def beta_prime(self, s):
        s = np.asarray(s, dtype=float)
        return s ** (self.p - 1.0)

    def beta_prime_inv(self, u):
        u = np.asarray(u, dtype=float)
        return u ** (1.0 / (self.p - 1.0))

    def occupancy(self, s):
        """The occupation law at energy surplus s; values in [0, 1].

        T = 0 selects the indicator branch.  Arguments s with s/T beyond
        beta'(1) always clamp to full occupation.
        """
        s = np.asarray(s, dtype=float)
        if self.T == 0.0:
            out = np.where(s >= 0.0, 1.0, 0.0)
        else:
            pos = s >= 0.0
            ratio = np.where(pos, s / self.T, 0.0)
            out = np.where(pos, np.minimum(self.beta_prime_inv(ratio), 1.0), 0.0)
        return out if out.ndim else float(out)

    # ---- energy-gap profiles ------------------------------------------------

    def profile_g(self, a):
        a = np.asarray(a, dtype=float)
        if self.T == 0.0:
            out = np.maximum(a, 0.0)
        else:
            q = 1.0 / (self.p - 1.0)
            T = self.T
            ac = np.clip(a, 0.0, T)
            out = ac ** (q + 1.0) / ((q + 1.0) * T**q)
            out = out + np.maximum(a - T, 0.0)
        return out if out.ndim else float(out)

    def profile_k(self, a):
        a = np.asarray(a, dtype=float)
        if self.T == 0.0:
            out = 0.5 * np.maximum(a, 0.0) ** 2
        else:
            q = 1.0 / (self.p - 1.0)
            T = self.T
            ap = np.maximum(a, 0.0)
            below = ap ** (q + 2.0) / ((q + 1.0) * (q + 2.0) * T**q)
            above = (
                ap * T / (q + 1.0)
                - T**2 / (q + 2.0)
                + 0.5 * (ap - T) ** 2
            )
            out = np.where(ap <= T, below, above)
        return out if out.ndim else float(out)

    def profile_b(self, a):
        a = np.asarray(a, dtype=float)
        if self.T == 0.0:
            out = float(self.beta(1.0)) * np.maximum(a, 0.0)
        else:
            q = 1.0 / (self.p - 1.0)
            T = self.T
            p = self.p
            ac = np.clip(a, 0.0, T)
            out = ac ** (q + 2.0) / (p * (q + 2.0) * T ** (q + 1.0))
            out = out + np.maximum(a - T, 0.0) / p
        return out if out.ndim else float(out)

    # ---- quadrature reference ------------------------------------------------

    def _cutoff(self) -> float:
        """Surplus at which occupancy saturates: s = T beta'(1)."""
        return self.T * float(self.beta_prime(1.0))

    def _occ_scalar(self, s: float) -> float:
        if s < 0:
            return 0.0
        if self.T == 0.0:
            return 1.0
        return min(float(self.beta_prime_inv(s / self.T)), 1.0)

    def _quad_scalar(self, integrand, upper: float) -> float:
        # Imported here: only this reference needs scipy.integrate, which is slow to load.
        from scipy.integrate import quad

        cut = self._cutoff()
        pts = [cut] if 0.0 < cut < upper else None
        val, _ = quad(integrand, 0.0, upper, points=pts, epsabs=QUAD_ABS_TOL, limit=200)
        return val


def profiles_by_quadrature(model: OccupancyModel, a: float) -> tuple[float, float, float]:
    """(G, K, B) at gap a by adaptive quadrature of the occupation law.

    Independent of the closed forms; reference for testing them.
    """
    if a <= 0:
        return 0.0, 0.0, 0.0
    g = model._quad_scalar(model._occ_scalar, a)
    k = model._quad_scalar(lambda s: (a - s) * model._occ_scalar(s), a)
    b = model._quad_scalar(lambda s: float(model.beta(model._occ_scalar(s))), a)
    return g, k, b


# ---- chemical potential ------------------------------------------------------


def _lambda_array(spectrum) -> np.ndarray:
    lam = spectrum.lam if hasattr(spectrum, "lam") else np.asarray(spectrum, dtype=float)
    if lam.ndim != 3:
        raise ValueError("spectrum must provide lambda_j(y) as an (ny1, ny2, J) array")
    if not np.all(np.isfinite(lam)):
        raise ValueError("spectrum contains non-finite eigenvalues")
    return lam

MU_REL_TOL = 1e-10


def subband_mass(mu: float, spectrum, grid, model: OccupancyModel) -> float:
    """Total kinetic mass carried by the ansatz occupations at potential mu.

    Equals 2 pi sum_j int G(mu - lambda_j(y)) dy; nondecreasing and
    continuous in mu.  At T = 0 this is the explicit ramp formula
    2 pi sum_j int (mu - lambda_j)_+ dy.
    """
    lam = _lambda_array(spectrum)
    if lam.shape[:2] != grid.lateral_shape:
        raise ValueError("spectrum lateral shape does not match grid")
    g = model.profile_g(mu - lam)
    return float(2.0 * np.pi * np.sum(g) * grid.hy1 * grid.hy2)


def solve_mu(
    M: float,
    spectrum,
    grid,
    model: OccupancyModel,
    rel_tol: float = MU_REL_TOL,
) -> float:
    """Invert the mass function: mu with |mass(mu) - M| <= rel_tol * M.

    Brackets from below at the spectral bottom, doubles the upper offset
    until the mass exceeds M, then bisects.  The mass function is
    continuous and nondecreasing, so this always lands.
    """
    if not M > 0:
        raise ValueError("target mass must be positive")
    lam = _lambda_array(spectrum)
    lo = float(np.min(lam[:, :, 0]))
    offset = 1.0
    hi = lo + offset
    for _ in range(200):
        if subband_mass(hi, spectrum, grid, model) >= M:
            break
        offset *= 2.0
        hi = lo + offset
    else:
        raise RuntimeError("failed to bracket the chemical potential in 200 doublings")
    # Mass evaluations sum ~J * area/h^2 rounded terms of size ~eps * |lambda|;
    # below that absolute noise the relative target is not representable.
    noise = (
        2.0 * np.pi * grid.lateral_area() * lam.shape[2]
        * np.finfo(float).eps * max(1.0, abs(hi))
    )
    tol = max(rel_tol * M, 8.0 * noise)
    for _ in range(400):
        mid = 0.5 * (lo + hi)
        m = subband_mass(mid, spectrum, grid, model)
        if abs(m - M) <= tol:
            return mid
        if m < M:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-16 * max(1.0, abs(hi)):
            break
    mid = 0.5 * (lo + hi)
    if abs(subband_mass(mid, spectrum, grid, model) - M) <= tol:
        return mid
    raise RuntimeError("bisection for the chemical potential stalled before tolerance")
