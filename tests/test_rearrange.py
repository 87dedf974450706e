import numpy as np
import pytest

from subbandeq.grid import Grid
from subbandeq.occupancy import OccupancyModel
from subbandeq.rearrange import (
    RadialGrid,
    AdmissiblePair,
    band_densities,
    is_energy_sorted,
    is_occupation_sorted,
    joint_density_through,
    occupation_sort_permutation,
    pair_casimir,
    pair_density,
    pair_mass,
    rayleigh_energies,
    rearrange_energy_increasing,
    rearrange_occupation_decreasing,
)
from subbandeq.schrodinger import profile_kinetic_energy, zero_extend
from subbandeq.verify import random_test_pair

GRID = Grid(4, 4, 24)
VGRID = RadialGrid.uniform(3.0, 48)


def sine_pair(order=(1, 2), f_values=None):
    """Two-mode pair built from exact discrete sines in a chosen band order."""
    z = GRID.z_nodes()[1:-1]
    ny1, ny2 = GRID.lateral_shape
    J = len(order)
    chi = np.empty((ny1, ny2, J, GRID.nz - 1))
    for slot, mode in enumerate(order):
        chi[:, :, slot, :] = np.sqrt(2.0) * np.sin(mode * np.pi * z)
    if f_values is None:
        f_values = [0.8, 0.3]
    f = np.zeros((ny1, ny2, J, VGRID.n_nodes))
    for slot, val in enumerate(f_values):
        f[:, :, slot, :] = val * np.exp(-VGRID.r**2)
    h = rayleigh_energies(chi, np.zeros(GRID.nz - 1), GRID)
    return AdmissiblePair(f=f, chi=chi, h=h, vgrid=VGRID)


def joint_density_loop(pair, order):
    """Speed node by speed node: the reference for the one-hot contraction."""
    f_perm = np.take_along_axis(pair.f, order, axis=2)
    chi2 = zero_extend(pair.chi**2)
    rho = np.zeros_like(chi2[:, :, 0])
    for v, w in enumerate(pair.vgrid.weights):
        chi2_perm = np.take_along_axis(chi2, order[..., v][..., None], axis=2)
        rho += w * np.einsum("abj,abjz->abz", f_perm[..., v], chi2_perm)
    return rho


class TestRadialGrid:
    def test_weights_integrate_plane(self):
        # int exp(-|v|^2/2) dv = 2 pi over the plane; second-order rule
        errs = []
        for nv in (200, 400, 800):
            vg = RadialGrid.uniform(8.0, nv)
            val = np.sum(vg.weights * np.exp(-0.5 * vg.r**2))
            errs.append(abs(val - 2.0 * np.pi))
        assert errs[-1] <= 1e-4
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.1)
        assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.1)

    def test_validation(self):
        with pytest.raises(ValueError):
            RadialGrid.uniform(0.0, 10)


class TestPairValidation:
    def test_occupations_out_of_range(self):
        pair = sine_pair()
        with pytest.raises(ValueError):
            AdmissiblePair(f=pair.f + 2.0, chi=pair.chi, h=pair.h, vgrid=pair.vgrid)

    def test_orthonormality_check(self):
        pair = sine_pair()
        pair.validate_orthonormal(GRID)
        broken = AdmissiblePair(
            f=pair.f, chi=pair.chi * 1.2, h=pair.h, vgrid=pair.vgrid
        )
        with pytest.raises(ValueError):
            broken.validate_orthonormal(GRID)


class TestEnergySort:
    def test_already_sorted_is_identity(self):
        pair = sine_pair(order=(1, 2))
        out = rearrange_energy_increasing(pair, GRID)
        assert np.array_equal(out.chi, pair.chi)
        assert np.array_equal(out.f, pair.f)

    def test_swapped_sines_swap_back(self):
        # modes supplied in order (2, 1) carry kinetic energies ~ (4 pi^2, pi^2)
        pair = sine_pair(order=(2, 1), f_values=[0.5, 0.9])
        k = profile_kinetic_energy(pair.chi, GRID)
        assert np.all(k[:, :, 0] > k[:, :, 1])
        out = rearrange_energy_increasing(pair, GRID)
        assert is_energy_sorted(out, GRID)
        sorted_ref = sine_pair(order=(1, 2), f_values=[0.9, 0.5])
        assert np.allclose(out.chi, sorted_ref.chi)
        assert np.allclose(out.f, sorted_ref.f)
        assert np.allclose(out.h, np.sort(pair.h, axis=2))

    def test_invariants_preserved(self):
        model = OccupancyModel(T=0.7, p=2.0)
        for seed in range(5):
            pair = random_test_pair(GRID, 4, VGRID, seed)
            out = rearrange_energy_increasing(pair, GRID)
            assert abs(pair_mass(out, GRID) - pair_mass(pair, GRID)) <= 1e-12
            assert abs(
                pair_casimir(out, GRID, model) - pair_casimir(pair, GRID, model)
            ) <= 1e-12
            d0 = pair_density(pair, GRID).values
            d1 = pair_density(out, GRID).values
            assert np.max(np.abs(d1 - d0)) <= 1e-12 * max(1.0, np.max(np.abs(d0)))

    def test_idempotent(self):
        pair = random_test_pair(GRID, 4, VGRID, seed=17)
        once = rearrange_energy_increasing(pair, GRID)
        twice = rearrange_energy_increasing(once, GRID)
        assert np.array_equal(once.chi, twice.chi)
        assert np.array_equal(once.f, twice.f)
        assert np.array_equal(once.h, twice.h)


class TestOccupationSort:
    def test_constant_in_j_unchanged(self):
        pair = sine_pair(f_values=[0.4, 0.4])
        out = rearrange_occupation_decreasing(pair)
        assert np.array_equal(out.f, pair.f)

    def test_pointwise_sort_semantics(self):
        pair = sine_pair(order=(1, 2, 3), f_values=[0.2, 0.9, 0.5])
        out = rearrange_occupation_decreasing(pair)
        assert is_occupation_sorted(out)
        got = out.f[0, 0, :, 0]
        want = np.sort(pair.f[0, 0, :, 0])[::-1]
        assert np.array_equal(got, want)

    def test_pointwise_sums_invariant(self):
        for seed in range(5):
            pair = random_test_pair(GRID, 4, VGRID, seed + 100)
            out = rearrange_occupation_decreasing(pair)
            assert np.max(np.abs(np.sum(out.f, axis=2) - np.sum(pair.f, axis=2))) <= 1e-15
            model = OccupancyModel(T=1.0, p=2.0)
            b0 = np.sum(model.beta(pair.f), axis=2)
            b1 = np.sum(model.beta(out.f), axis=2)
            assert np.max(np.abs(b1 - b0)) <= 1e-15

    def test_joint_density_invariance(self):
        for seed in range(3):
            pair = random_test_pair(GRID, 3, VGRID, seed + 50)
            order = occupation_sort_permutation(pair)
            joint = joint_density_through(pair, order, GRID).values
            plain = pair_density(pair, GRID).values
            assert np.max(np.abs(joint - plain)) <= 1e-12 * max(1.0, np.max(plain))

    def test_joint_density_follows_order(self):
        # band 0 standing in for band 1 at every point: the joint density
        # counts mode 0 twice and mode 1 never, so it must leave pair_density,
        # exactly as the speed-node loop does
        pair = random_test_pair(GRID, 3, VGRID, seed=53)
        order = occupation_sort_permutation(pair)
        broken = np.where(order == 1, 0, order)
        plain = pair_density(pair, GRID).values
        for o in (order, broken):
            joint = joint_density_through(pair, o, GRID).values
            assert np.max(np.abs(joint - joint_density_loop(pair, o))) <= 1e-13 * np.max(plain)
        assert np.max(np.abs(joint - plain)) > 1e-3 * np.max(plain)

    def test_idempotent(self):
        pair = random_test_pair(GRID, 4, VGRID, seed=23)
        once = rearrange_occupation_decreasing(pair)
        twice = rearrange_occupation_decreasing(once)
        assert np.array_equal(once.f, twice.f)


class TestBandDensities:
    def test_matches_manual_quadrature(self):
        pair = sine_pair()
        rho = band_densities(pair)
        manual = np.sum(pair.f[0, 0, 0] * VGRID.weights)
        assert rho[0, 0, 0] == pytest.approx(manual, rel=1e-14)
