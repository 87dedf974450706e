"""Occupation law and its energy-gap profiles.

At temperature T the occupation of a state with energy surplus s is
min((beta')^{-1}(s/T), 1), an increasing ramp that saturates at full
occupation; at T = 0 it degenerates to a step.  All velocity-space
integrals of the equilibrium ansatz collapse to three 1D profiles of the
local gap a = mu - lambda_j(y): G (density), K (kinetic energy), B
(entropy).  The closed forms used by the solver are checked here against
tanh-sinh quadrature and rendered for a few parameter choices.
"""

import numpy as np

from subbandeq import OccupancyModel
from subbandeq.occupancy import profiles_by_quadrature

models = [
    ("T = 0 (step)", OccupancyModel(T=0.0)),
    ("T = 0.5, p = 2", OccupancyModel(T=0.5, p=2.0)),
    ("T = 0.5, p = 3", OccupancyModel(T=0.5, p=3.0)),
]

print("Occupation law occ(s):")
s_grid = np.array([-0.5, 0.0, 0.1, 0.25, 0.5, 1.0])
header = "  s      " + "".join(f"{name:>18s}" for name, _ in models)
print(header)
for s in s_grid:
    row = f"  {s:5.2f}  " + "".join(f"{m.occupancy(s):18.6f}" for _, m in models)
    print(row)

print("\nProfiles at selected gaps (closed form | quadrature):")
for name, model in models:
    print(f"  {name}")
    for a in (0.25, 1.0, 4.0):
        gq, kq, bq = profiles_by_quadrature(model, a)
        print(
            f"    a = {a:4.2f}:  G = {model.profile_g(a):.10f} | {gq:.10f}"
            f"   K = {model.profile_k(a):.10f} | {kq:.10f}"
            f"   B = {model.profile_b(a):.10f} | {bq:.10f}"
        )

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    a = np.linspace(-0.5, 3.0, 400)
    fig, axes = plt.subplots(1, 3, figsize=(12, 3.4), constrained_layout=True)
    for name, model in models:
        axes[0].plot(a, model.profile_g(a), label=name)
        axes[1].plot(a, model.profile_k(a), label=name)
        axes[2].plot(a, model.profile_b(a), label=name)
    for ax, title in zip(axes, ("density profile G", "kinetic profile K", "entropy profile B")):
        ax.set_title(title)
        ax.set_xlabel("energy gap a")
        ax.grid(alpha=0.3)
    axes[0].legend(fontsize=8)
    fig.savefig("demos_occupancy_profiles.png", dpi=120)
    print("\nwrote demos_occupancy_profiles.png")
except ImportError:
    print("\nmatplotlib not available; skipped the figure")
