import numpy as np
import pytest

from subbandeq.grid import Grid
from subbandeq.occupancy import OccupancyModel
from subbandeq.rearrange import (
    RadialGrid,
    AdmissiblePair,
    band_densities,
    joint_band_densities,
    occupation_sort_permutation,
    pair_casimir,
    pair_mass,
    rearrange_energy_increasing,
    rearrange_occupation_decreasing,
)
from subbandeq.schrodinger import (
    band_sum_density, check_orthonormal, profile_kinetic_energy, zero_extend,
)
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
    return AdmissiblePair(f=f, chi=chi, vgrid=VGRID)


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

    @pytest.mark.parametrize("v_max", [np.inf, np.nan])
    def test_non_finite_v_max_rejected(self, v_max):
        # an infinite v_max would give nodes [nan, inf, ...] and a RuntimeWarning
        with pytest.raises(ValueError, match="finite positive v_max"):
            RadialGrid.uniform(v_max, 4)


class TestPairValidation:
    def test_occupations_out_of_range(self):
        pair = sine_pair()
        with pytest.raises(ValueError):
            AdmissiblePair(f=pair.f + 2.0, chi=pair.chi, vgrid=pair.vgrid)

    def test_malformed_arrays_rejected(self):
        pair = sine_pair()
        cases = [
            (pair.f[..., 0], pair.chi, "wrong rank"),
            (pair.f, pair.chi[..., 0], "wrong rank"),
            (pair.f[:, :, :1], pair.chi, "disagree on"),
            (pair.f[:3], pair.chi, "disagree on"),
            (pair.f[..., :-1], pair.chi, "radial grid"),
        ]
        for f, chi, message in cases:
            with pytest.raises(ValueError, match=message):
                AdmissiblePair(f=f, chi=chi, vgrid=pair.vgrid)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entries_rejected(self, bad):
        vgrid = RadialGrid.uniform(1.0, 4)
        f, chi = np.full((2, 2, 1, 5), 0.5), np.ones((2, 2, 1, 3))
        AdmissiblePair(f=f, chi=chi, vgrid=vgrid)
        f_bad, chi_bad = f.copy(), chi.copy()
        f_bad[1, 0, 0, 2] = chi_bad[0, 1, 0, 1] = bad
        with pytest.raises(ValueError, match=r"occupations must lie in \[0, 1\]"):
            AdmissiblePair(f=f_bad, chi=chi, vgrid=vgrid)
        with pytest.raises(ValueError, match="modes must be finite"):
            AdmissiblePair(f=f, chi=chi_bad, vgrid=vgrid)

    def test_kinetic_energies_of_wrong_shape_rejected(self):
        pair = sine_pair()
        k = profile_kinetic_energy(pair.chi, GRID)
        AdmissiblePair(f=pair.f, chi=pair.chi, vgrid=pair.vgrid, k=k)
        with pytest.raises(ValueError, match="disagree on"):
            AdmissiblePair(f=pair.f, chi=pair.chi, vgrid=pair.vgrid, k=k[..., :1])

    def test_orthonormality_check(self):
        pair = sine_pair()
        check_orthonormal(pair.chi, GRID)
        broken = AdmissiblePair(f=pair.f, chi=pair.chi * 1.2, vgrid=pair.vgrid)
        with pytest.raises(ValueError):
            check_orthonormal(broken.chi, GRID)


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
        assert np.all(np.diff(profile_kinetic_energy(out.chi, GRID), axis=2) >= 0.0)
        sorted_ref = sine_pair(order=(1, 2), f_values=[0.9, 0.5])
        assert np.allclose(out.chi, sorted_ref.chi)
        assert np.allclose(out.f, sorted_ref.f)

    def test_invariants_preserved(self):
        model = OccupancyModel(T=0.7, p=2.0)
        for seed in range(5):
            pair = random_test_pair(GRID, 4, VGRID, seed)
            out = rearrange_energy_increasing(pair, GRID)
            assert abs(pair_mass(out, GRID) - pair_mass(pair, GRID)) <= 1e-12
            assert abs(
                pair_casimir(out, GRID, model) - pair_casimir(pair, GRID, model)
            ) <= 1e-12
            d0 = band_sum_density(band_densities(pair), zero_extend(pair.chi) ** 2)
            d1 = band_sum_density(band_densities(out), zero_extend(out.chi) ** 2)
            assert np.max(np.abs(d1 - d0)) <= 1e-12 * max(1.0, np.max(np.abs(d0)))

    def test_idempotent(self):
        pair = random_test_pair(GRID, 4, VGRID, seed=17)
        once = rearrange_energy_increasing(pair, GRID)
        twice = rearrange_energy_increasing(once, GRID)
        assert np.array_equal(once.chi, twice.chi)
        assert np.array_equal(once.f, twice.f)


class TestOccupationSort:
    def test_constant_in_j_unchanged(self):
        pair = sine_pair(f_values=[0.4, 0.4])
        out = rearrange_occupation_decreasing(pair)
        assert np.array_equal(out.f, pair.f)

    def test_pointwise_sort_semantics(self):
        pair = sine_pair(order=(1, 2, 3), f_values=[0.2, 0.9, 0.5])
        out = rearrange_occupation_decreasing(pair)
        assert np.all(np.diff(out.f, axis=2) <= 0.0)
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
            order, chi2 = occupation_sort_permutation(pair), zero_extend(pair.chi) ** 2
            joint = band_sum_density(joint_band_densities(pair, order), chi2)
            plain = band_sum_density(band_densities(pair), chi2)
            assert np.max(np.abs(joint - plain)) <= 1e-12 * max(1.0, np.max(plain))

    def test_joint_density_follows_order(self):
        # band 0 standing in for band 1 at every point: the joint density
        # counts mode 0 twice and mode 1 never, so it must leave the plain density,
        # exactly as the speed-node loop does
        pair = random_test_pair(GRID, 3, VGRID, seed=53)
        order = occupation_sort_permutation(pair)
        broken = np.where(order == 1, 0, order)
        chi2 = zero_extend(pair.chi) ** 2
        plain = band_sum_density(band_densities(pair), chi2)
        for o in (order, broken):
            joint = band_sum_density(joint_band_densities(pair, o), chi2)
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


def tied_pair(J, seed):
    """Seeded pair full of ties: occupations clipped at 0 and 1, and repeated
    modes (hence equal kinetic energies) in every slice."""
    rng = np.random.default_rng(seed)
    ny1, ny2 = GRID.lateral_shape
    f = np.clip(rng.uniform(-0.6, 1.6, (ny1, ny2, J, VGRID.n_nodes)), 0.0, 1.0)
    f[:, :, J // 2] = f[:, :, 0]  # whole bands of equal occupations too
    modes = rng.normal(size=(ny1, ny2, max(1, J - 1), GRID.nz - 1))
    chi = modes[:, :, rng.integers(0, modes.shape[2], J)]
    return AdmissiblePair(f=f, chi=chi, vgrid=VGRID)


def same_bytes(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    # as integers, -0.0 and +0.0 differ
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def energy_sort_reference(pair, grid):
    """The take_along_axis formulation the row gathers replace."""
    order = np.argsort(profile_kinetic_energy(pair.chi, grid), axis=2, kind="stable")
    f = np.take_along_axis(pair.f, order[..., None], axis=2)
    chi = np.take_along_axis(pair.chi, order[..., None], axis=2)
    return AdmissiblePair(f=f, chi=chi, vgrid=pair.vgrid)


def joint_density_reference(pair, order):
    """The take_along_axis and broadcast one-hot formulation of the joint densities."""
    f_perm = np.take_along_axis(pair.f, order, axis=2)
    onehot = order[..., None] == np.arange(pair.J)
    return np.einsum("abjv,abjvi,v->abi", f_perm, onehot, pair.vgrid.weights)


class TestKernelsBitForBit:
    """Each kernel returns the bytes of the numpy formulation it replaced."""

    @pytest.mark.parametrize("J", range(1, 7))
    def test_energy_sort_is_the_take_along_axis_gather(self, J):
        for seed in range(3):
            pair = tied_pair(J, seed)
            ref = energy_sort_reference(pair, GRID)
            k = profile_kinetic_energy(pair.chi, GRID)
            carrying = AdmissiblePair(pair.f, pair.chi, pair.vgrid, k=k)
            for given in (pair, carrying):
                out = rearrange_energy_increasing(given, GRID)
                assert same_bytes(out.f, ref.f) and same_bytes(out.chi, ref.chi)
                # the carried energies are those of the modes they travelled with
                assert same_bytes(out.k, profile_kinetic_energy(out.chi, GRID))

    @pytest.mark.parametrize("J", range(1, 7))
    def test_occupation_sort_is_np_sort(self, J):
        for seed in range(3):
            pair = tied_pair(J, seed)
            out = rearrange_occupation_decreasing(pair)
            assert same_bytes(out.f, -np.sort(-pair.f, axis=2))
            order = occupation_sort_permutation(pair)
            assert np.array_equal(order, np.argsort(-pair.f, axis=2, kind="stable"))
            assert same_bytes(out.f, np.take_along_axis(pair.f, order, axis=2))

    @pytest.mark.parametrize("J", range(1, 7))
    def test_joint_densities_are_the_take_along_axis_contraction(self, J):
        for seed in range(3):
            pair = tied_pair(J, seed)
            order = occupation_sort_permutation(pair)
            broken = np.where(order == J - 1, 0, order)
            for o in (order, broken):
                assert same_bytes(joint_band_densities(pair, o), joint_density_reference(pair, o))
