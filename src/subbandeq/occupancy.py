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
discretized.  A fixed tanh-sinh rule over the occupation law
(profiles_by_quadrature) is kept as the reference they are tested against.
The mass function and the mu solve take the eigenvalues lambda_j(y) as one
(ny1, ny2, J) array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class OccupancyModel:
    """Temperature plus the power-family entropy density s^p / p."""

    T: float = 0.0
    p: float = 2.0

    def __post_init__(self):
        if not 0.0 <= self.T < math.inf:
            raise ValueError("temperature must be finite and nonnegative")
        if not 1.0 < self.p < math.inf:
            raise ValueError("power family requires a finite p > 1 (strict convexity)")

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

        T = 0 selects the indicator branch.  s / T is clamped at beta'(1),
        where the law saturates at full occupation, before the power is taken.
        """
        s = np.asarray(s, dtype=float)
        if self.T == 0.0:
            out = np.where(s >= 0.0, 1.0, 0.0)
        else:
            ratio = np.clip(s / self.T, 0.0, self.beta_prime(1.0))
            out = np.where(s >= 0.0, self.beta_prime_inv(ratio), 0.0)
        return out if out.ndim else float(out)

    # ---- energy-gap profiles ------------------------------------------------
    # At T > 0 the profiles are written in x = min(a+, T) / T, the fraction of
    # the unsaturated range below the gap, and never form T^q or a^q: those
    # under- or overflow as p approaches 1 and q = 1/(p - 1) grows.

    def profile_g(self, a):
        a = np.asarray(a, dtype=float)
        if self.T == 0.0:
            out = np.maximum(a, 0.0)
        else:
            q = 1.0 / (self.p - 1.0)
            T = self.T
            x = np.clip(a, 0.0, T) / T
            out = T * x ** (q + 1.0) / (q + 1.0)
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
            x = np.minimum(ap, T) / T
            below = T**2 * x ** (q + 2.0) / ((q + 1.0) * (q + 2.0))
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
            x = np.clip(a, 0.0, T) / T
            out = T * x ** (q + 2.0) / (p * (q + 2.0))
            out = out + np.maximum(a - T, 0.0) / p
        return out if out.ndim else float(out)


# Tanh-sinh rule on [0, 1] (Takahasi & Mori, Publ. RIMS 9, 1974): nodes
# x = (1 + tanh u) / 2, u = (pi/2) sinh t, at t = k/16 for |t| <= 3.2, where
# the weights fall below 1e-16.  Nodes are formed as 1 / (1 + exp(-2u)), which
# keeps their distance to 0 exact, so integrands like s^q with q < 1 keep the
# rule's double-exponential convergence.
_TS_T = np.arange(-51, 52) / 16.0
_TS_U = 0.5 * np.pi * np.sinh(_TS_T)
_TS_X = 1.0 / (1.0 + np.exp(-2.0 * _TS_U))
_TS_W = (np.pi / 64.0) * np.cosh(_TS_T) / np.cosh(_TS_U) ** 2


def profiles_by_quadrature(model: OccupancyModel, a: float) -> tuple[float, float, float]:
    """(G, K, B) at gap a by tanh-sinh quadrature of the occupation law.

    The rule runs on [0, c] and [c, a], split where the law saturates,
    c = T beta'(1).  Independent of the closed forms; reference for testing them.
    """
    if a <= 0:
        return 0.0, 0.0, 0.0
    c = min(model.T * float(model.beta_prime(1.0)), a)
    s = np.concatenate([c * _TS_X, c + (a - c) * _TS_X])
    w = np.concatenate([c * _TS_W, (a - c) * _TS_W])
    occ = model.occupancy(s)
    return float(w @ occ), float(w @ ((a - s) * occ)), float(w @ model.beta(occ))


# ---- chemical potential ------------------------------------------------------


def _lambda_array(lam) -> np.ndarray:
    lam = np.asarray(lam, dtype=float)
    if lam.ndim != 3:
        raise ValueError("eigenvalues lambda_j(y) must be an (ny1, ny2, J) array")
    if not np.all(np.isfinite(lam)):
        raise ValueError("spectrum contains non-finite eigenvalues")
    return lam

MU_REL_TOL = 1e-10
# ITP truncation kappa1 * width^2 / (b - lo), on the scale of the offset from
# the spectral bottom over which the mass curves, and the halvings by which
# ITP's bracket may lag bisection's.
_ITP_KAPPA1 = 0.01
_ITP_N0 = 1
# Cap on the factor by which the first secant step multiplies the offset from
# the spectral bottom: a far overshoot would cost ITP a step per halving of it.
_SECANT_GROWTH = 16.0


def subband_mass(mu: float, lam, grid, model: OccupancyModel) -> float:
    """Total kinetic mass carried by the ansatz occupations at potential mu.

    Equals 2 pi sum_j int G(mu - lambda_j(y)) dy; nondecreasing and
    continuous in mu.  At T = 0 this is the explicit ramp formula
    2 pi sum_j int (mu - lambda_j)_+ dy.  lam holds lambda_j(y), shape (ny1, ny2, J).
    """
    lam = _lambda_array(lam)
    if lam.shape[:2] != grid.lateral_shape:
        raise ValueError("spectrum lateral shape does not match grid")
    g = model.profile_g(mu - lam)
    return float(2.0 * np.pi * np.sum(g) * grid.hy1 * grid.hy2)


def solve_mu(
    M: float,
    lam,
    grid,
    model: OccupancyModel,
    mu_guess: float | None = None,
) -> float:
    """Invert the mass function: mu with |mass(mu) - M| <= MU_REL_TOL * M.

    The mass is zero at the spectral bottom lo and continuous and
    nondecreasing above it.  The first trial is mu_guess (the previous
    cycle's mu) if it lies above lo, else lo + 1; the second is the secant
    through (lo, 0) and the first, which lands on the far side of the root
    whenever the mass is convex in mu (as the closed-form profiles make
    it).  Doubling the offset from lo finds an upper end otherwise.  ITP
    steps (Oliveira & Takahashi, ACM TOMS 47, 2020) then shrink the bracket:
    secant-fast on a smooth mass, and on any continuous one never more than
    _ITP_N0 + 1 halvings behind bisection.
    """
    if not M > 0:
        raise ValueError("target mass must be positive")
    lam = _lambda_array(lam)
    lo = float(np.min(lam[:, :, 0]))
    # Mass evaluations sum ~J * area/h^2 rounded terms of size ~eps * |mu|;
    # below that absolute noise the relative target is not representable.
    noise = 16.0 * np.pi * grid.lateral_area() * lam.shape[2] * np.finfo(float).eps

    def excess(mu):
        return subband_mass(mu, lam, grid, model) - M

    def hit(mu, e):
        return abs(e) <= max(MU_REL_TOL * M, noise * max(1.0, abs(mu)))

    a, ea, b, eb = lo, -M, None, None
    x = float(mu_guess) if mu_guess is not None and mu_guess > lo else lo + 1.0
    for k in range(200):
        ex = excess(x)
        if hit(x, ex):
            return x
        if ex < 0.0:
            a, ea = x, ex
        else:
            b, eb = x, ex
        if k and b is not None:
            break
        if k == 0 and ex > -M:
            growth = min(M / (M + ex), _SECANT_GROWTH)  # secant through (lo, 0)
        else:
            growth = 2.0
        x = lo + (x - lo) * growth
    else:
        raise RuntimeError("failed to bracket the chemical potential in 200 doublings")
    # x floor: about one ulp; below it the bracket cannot shrink.
    tiny = np.finfo(float).eps * max(1.0, abs(a), abs(b))
    n_max = max(0, math.ceil(math.log2((b - a) / (2.0 * tiny)))) + _ITP_N0
    kappa1 = _ITP_KAPPA1 / (b - lo)
    for j in range(n_max):
        if b - a <= 2.0 * tiny:
            break
        half = 0.5 * (a + b)
        radius = tiny * 2.0 ** (n_max - j) - 0.5 * (b - a)
        delta = kappa1 * (b - a) ** 2
        x_f = (b * ea - a * eb) / (ea - eb)
        sigma = math.copysign(1.0, half - x_f)
        x_t = x_f + sigma * delta if delta <= abs(half - x_f) else half
        x = x_t if abs(x_t - half) <= radius else half - sigma * radius
        ex = excess(x)
        if hit(x, ex):
            return x
        if ex < 0.0:
            a, ea = x, ex
        else:
            b, eb = x, ex
    x = 0.5 * (a + b)
    if hit(x, excess(x)):
        return x
    raise RuntimeError("chemical-potential solve stalled before tolerance")
