"""Tensor grid for the slab domain and quadrature over it.

The computational domain is a box: a rectangular cross-section
(0, L1) x (0, L2) in the lateral (unconfined) directions, times the unit
interval (0, 1) in the confined z-direction.  Lateral fields live on the
interior nodes only (homogeneous Dirichlet data is a zero extension);
z-profiles live on the closed node set z_k = k/nz, k = 0..nz, so that the
Neumann closure of the Poisson solver and the Dirichlet eigensolver share
one node set.  Volume fields (potentials, densities) are plain float arrays
of Grid.volume_shape.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Grid:
    """Tensor discretization: ny1 x ny2 interior lateral nodes, nz z-intervals."""

    ny1: int
    ny2: int
    nz: int
    L1: float = 1.0
    L2: float = 1.0

    def __post_init__(self):
        if self.ny1 < 2 or self.ny2 < 2:
            raise ValueError("need at least 2 interior nodes in each lateral direction")
        if self.nz < 4:
            raise ValueError("need at least 4 z-intervals")
        if not (0.0 < self.L1 < np.inf and 0.0 < self.L2 < np.inf):
            raise ValueError("lateral extents must be finite and positive")

    @property
    def hy1(self) -> float:
        return self.L1 / (self.ny1 + 1)

    @property
    def hy2(self) -> float:
        return self.L2 / (self.ny2 + 1)

    @property
    def hz(self) -> float:
        return 1.0 / self.nz

    @property
    def lateral_shape(self) -> tuple[int, int]:
        return (self.ny1, self.ny2)

    @property
    def volume_shape(self) -> tuple[int, int, int]:
        return (self.ny1, self.ny2, self.nz + 1)

    def y1_nodes(self) -> np.ndarray:
        return self.hy1 * np.arange(1, self.ny1 + 1)

    def y2_nodes(self) -> np.ndarray:
        return self.hy2 * np.arange(1, self.ny2 + 1)

    def z_nodes(self) -> np.ndarray:
        return self.hz * np.arange(self.nz + 1)

    def z_weights(self) -> np.ndarray:
        """Trapezoid weights on the closed z-node set."""
        w = np.full(self.nz + 1, self.hz)
        w[0] = w[-1] = 0.5 * self.hz
        return w

    def node_volumes(self) -> np.ndarray:
        """Quadrature volume of each (y1, y2, z) node, shape volume_shape."""
        w = np.empty(self.volume_shape)
        w[:] = self.hy1 * self.hy2 * self.z_weights()[None, None, :]
        return w

    def lateral_area(self) -> float:
        """Node-rule area of the cross-section (zero-extended to the boundary)."""
        return self.ny1 * self.ny2 * self.hy1 * self.hy2


def _volume_values(f, grid: Grid) -> np.ndarray:
    """f as a float array of grid.volume_shape (lateral nodes x closed z-nodes), all finite."""
    v = np.asarray(f, dtype=float)
    if v.shape != grid.volume_shape:
        raise ValueError(f"volume field shape {v.shape} != grid {grid.volume_shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("volume field contains non-finite values")
    return v


def l2_norm_volume(f, grid: Grid) -> float:
    """Discrete L2(Omega) norm with the node quadrature weights."""
    v = _volume_values(f, grid)
    return float(np.sqrt(np.sum(v * v * grid.node_volumes())))
