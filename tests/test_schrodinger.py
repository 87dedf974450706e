import inspect
import tracemalloc

import numpy as np
import pytest

from subbandeq.grid import Grid
from subbandeq.schrodinger import (
    _EPS,
    SubbandSpectrum,
    _guarded_pivots,
    _ldl_pivots,
    _solve_block,
    _warm,
    band_sum_density,
    external_pairing,
    free_mode_eigenvalue,
    mode_expectations,
    profile_kinetic_energy,
    solve_slice,
    sine_modes,
    solve_slices,
)


def zwell_noise(grid, seed, noise=0.5):
    """Seeded zwell-plus-noise slice potentials, shape (ny1, ny2, nz-1)."""
    z = grid.z_nodes()[1:-1]
    rng = np.random.default_rng(seed)
    return 8.0 * z * (1.0 - z) + noise * rng.standard_normal(grid.lateral_shape + (grid.nz - 1,))


def double_well(grid):
    """Two deep, narrow Gaussian wells on every slice: the sine modes are a poor guess."""
    z = grid.z_nodes()[1:-1]
    prof = -4000.0 * sum(np.exp(-0.5 * ((z - c) / 0.02) ** 2) for c in (0.15, 0.8))
    return np.broadcast_to(prof, grid.lateral_shape + prof.shape).copy()


def record_sweeps(monkeypatch):
    """Column counts of the Rayleigh passes of each _warm call.

    Each entry lists the block's (slice, band) columns first, then the
    columns still active in each sweep.
    """
    import subbandeq.schrodinger as sch

    calls, warm, rayleigh = [], sch._warm, sch._rayleigh

    def warm_recording(*args):
        calls.append([])
        return warm(*args)

    def rayleigh_recording(A, e, X, *scratch):
        calls[-1].append(X[0].size)
        return rayleigh(A, e, X, *scratch)

    monkeypatch.setattr(sch, "_warm", warm_recording)
    monkeypatch.setattr(sch, "_rayleigh", rayleigh_recording)
    return calls


def partly_active(calls) -> bool:
    """Some sweep left a block with active and converged columns."""
    return any(0 < m < cols[0] for cols in calls for m in cols[1:])


def warm_certified(a, e, start):
    """_warm's certified slices for the diagonals a (B, n) from the start vectors (B, J, n)."""
    V = np.ascontiguousarray(np.transpose(start, (2, 1, 0)))  # z by (band, slice)
    return _warm(np.ascontiguousarray(a.T), e, V, np.empty((3, V.size)))[0]


def tridiagonal_apply(W, chi, grid):
    """T chi along the last axis; W broadcasts against chi."""
    hz = grid.hz
    out = (1.0 / hz**2 + W) * chi
    out[..., :-1] -= 0.5 / hz**2 * chi[..., 1:]
    out[..., 1:] -= 0.5 / hz**2 * chi[..., :-1]
    return out


class TestFreeWell:
    def test_exact_discrete_eigenvalues(self):
        g = Grid(2, 2, 200)
        lam, chi = solve_slice(np.zeros(g.nz - 1), 10, g)
        exact = free_mode_eigenvalue(np.arange(1, 11), g)
        assert np.max(np.abs(lam - exact) / exact) <= 1e-12

    def test_continuum_limit_second_order(self):
        errs = []
        for nz in (50, 100, 200):
            g = Grid(2, 2, nz)
            lam, _ = solve_slice(np.zeros(nz - 1), 1, g)
            errs.append(abs(lam[0] - np.pi**2 / 2.0))
        assert errs[-1] <= 5e-4
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.15)
        assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.15)


class TestSolveSlice:
    def test_constant_shift(self):
        g = Grid(2, 2, 48)
        rng = np.random.default_rng(0)
        W = rng.uniform(0.0, 5.0, g.nz - 1)
        lam0, chi0 = solve_slice(W, 5, g)
        lam1, chi1 = solve_slice(W + 3.25, 5, g)
        assert np.max(np.abs(lam1 - lam0 - 3.25)) <= 1e-10
        assert np.max(np.abs(chi1 - chi0)) <= 1e-8

    def test_normalization_and_sign(self):
        g = Grid(2, 2, 40)
        W = np.linspace(0.0, 7.0, g.nz - 1)
        lam, chi = solve_slice(W, 6, g)
        for j in range(6):
            assert g.hz * np.sum(chi[j] ** 2) == pytest.approx(1.0, abs=1e-12)
            assert chi[j, 0] > 0.0
        full = np.zeros((6, g.nz + 1))
        full[:, 1:-1] = chi
        for j in range(6):
            assert np.sum(full[j] ** 2 * g.z_weights()) == pytest.approx(1.0, abs=1e-10)

    def test_sign_fixed_at_first_nonzero_sample(self):
        # a 1e6 barrier on z < 0.6 makes every mode exactly 0 at the first
        # interior node, so the sign is fixed at the first nonzero sample
        g = Grid(2, 2, 64)
        z = g.z_nodes()[1:-1]
        _, chi = solve_slice(np.where(z < 0.6, 1e6, 0.0), 3, g)
        assert np.all(chi[:, 0] == 0.0)
        for c in chi:
            assert c[np.flatnonzero(c)[0]] > 0.0

    def test_residual_and_orthogonality(self):
        g = Grid(2, 2, 64)
        rng = np.random.default_rng(5)
        W = rng.uniform(0.0, 20.0, g.nz - 1)
        lam, chi = solve_slice(W, 8, g)
        for j in range(8):
            r = tridiagonal_apply(W, chi[j], g) - lam[j] * chi[j]
            assert np.linalg.norm(r) <= 1e-8 * abs(lam[j])
        gram = g.hz * chi @ chi.T
        assert np.max(np.abs(gram - np.eye(8))) <= 1e-8

    def test_rayleigh_identity_exact(self):
        # eigenvalue = (1/2)|dchi|^2 + int W chi^2 in the discrete forms
        g = Grid(2, 2, 32)
        W = np.linspace(1.0, 4.0, g.nz - 1) ** 2
        lam, chi = solve_slice(W, 4, g)
        kin = profile_kinetic_energy(chi, g)
        pot = g.hz * np.sum(W * chi**2, axis=1)
        assert np.max(np.abs(0.5 * kin + pot - lam)) <= 1e-10 * np.max(np.abs(lam))

    def test_input_validation(self):
        g = Grid(2, 2, 16)
        with pytest.raises(ValueError):
            solve_slice(np.zeros(g.nz - 1), g.nz, g)
        with pytest.raises(ValueError):
            solve_slice(np.zeros(3), 2, g)
        with pytest.raises(ValueError):
            solve_slice(np.full(g.nz - 1, np.nan), 2, g)


class TestMinMaxProperties:
    def test_monotone_in_potential(self):
        g = Grid(2, 2, 40)
        rng = np.random.default_rng(2)
        W1 = rng.uniform(0.0, 3.0, g.nz - 1)
        W2 = W1 + rng.uniform(0.0, 2.0, g.nz - 1)
        lam1, _ = solve_slice(W1, 6, g)
        lam2, _ = solve_slice(W2, 6, g)
        assert np.all(lam2 >= lam1 - 1e-12)

    def test_lower_bound_free_modes(self):
        g = Grid(2, 2, 40)
        rng = np.random.default_rng(3)
        W = rng.uniform(0.0, 10.0, g.nz - 1)
        lam, _ = solve_slice(W, 8, g)
        j = np.arange(1, 9)
        assert np.all(lam >= free_mode_eigenvalue(j, g) - 1e-12)
        # discrete bound dominates the continuum pi^2 j^2 / 6 for resolved modes
        assert np.all(free_mode_eigenvalue(j, g) >= np.pi**2 * j**2 / 6.0)


class TestStabilityGap:
    def test_identical_potentials(self):
        g = Grid(2, 2, 32)
        W = np.linspace(0.0, 2.0, g.nz - 1)
        assert np.array_equal(solve_slice(W, 5, g)[0], solve_slice(W.copy(), 5, g)[0])

    def test_constant_shift_gap(self):
        g = Grid(2, 2, 32)
        W = np.linspace(0.0, 2.0, g.nz - 1)
        gaps = solve_slice(W + 0.7, 5, g)[0] - solve_slice(W, 5, g)[0]
        assert np.max(np.abs(gaps - 0.7)) <= 1e-10

    def test_bounded_by_sup_norm(self):
        g = Grid(2, 2, 48)
        rng = np.random.default_rng(11)
        for _ in range(10):
            W1 = rng.uniform(0.0, 8.0, g.nz - 1)
            delta = rng.uniform(-1.0, 1.0, g.nz - 1)
            gaps = np.abs(solve_slice(W1, 6, g)[0] - solve_slice(W1 + delta, 6, g)[0])
            assert np.max(gaps) <= np.max(np.abs(delta)) * (1.0 + 1e-12)


class TestSolveSlices:
    def test_matches_per_slice(self):
        g = Grid(3, 4, 24)
        rng = np.random.default_rng(7)
        W3 = rng.uniform(0.0, 6.0, (3, 4, g.nz - 1))
        spec = solve_slices(W3, 3, g)
        spec.validate(g)
        lam_00, chi_00 = solve_slice(W3[0, 0], 3, g)
        assert np.array_equal(spec.lam[0, 0], lam_00)
        assert np.array_equal(spec.chi[0, 0], chi_00)

    @pytest.mark.parametrize("J", [1, 3])
    def test_uniform_potential_solves_one_slice(self, monkeypatch, J):
        # with no guess, a W whose slices are all the same is solved on one
        # slice; the result is the batched solve of every slice bit for bit.
        # One slice that differs sends the grid to the batched path
        import subbandeq.schrodinger as sch

        g = Grid(5, 7, 24)
        z = g.z_nodes()[1:-1]
        W = np.broadcast_to(8.0 * z * (1.0 - z), (g.ny1, g.ny2, g.nz - 1)).copy()
        lam, chi = sch._solve_block(W.reshape(-1, g.nz - 1), J, g)
        rows, solve_block = [], sch._solve_block

        def recording(Wb, *args):
            rows.append(len(Wb))
            return solve_block(Wb, *args)

        monkeypatch.setattr(sch, "_solve_block", recording)
        spec = solve_slices(W, J, g)
        assert rows == [1]
        assert np.array_equal(spec.lam, lam.reshape(g.ny1, g.ny2, J))
        assert np.array_equal(spec.chi, chi.reshape(g.ny1, g.ny2, J, g.nz - 1))
        W[-1, -1, 3] += 1.0
        rows.clear()
        solve_slices(W, J, g)
        assert sum(rows) == g.ny1 * g.ny2

    def test_wrong_shape_rejected(self):
        g = Grid(3, 4, 16)
        for shape in ((4, 3, g.nz - 1), (3, 4, g.nz), (3, 4)):
            with pytest.raises(ValueError, match="slice potential has wrong shape"):
                solve_slices(np.zeros(shape), 2, g)

    def test_guess_from_another_grid_rejected(self):
        g = Grid(4, 4, 16)
        W = zwell_noise(g, 1)
        for other in (Grid(4, 4, 24), Grid(4, 5, 16), Grid(5, 4, 16)):
            guess = solve_slices(zwell_noise(other, 1), 2, other)
            with pytest.raises(ValueError, match="guess spectrum does not match grid"):
                solve_slices(W, 2, g, guess)

    def test_validate_rejects_shape_and_band_order(self):
        g = Grid(3, 4, 16)
        spec = solve_slices(np.zeros((3, 4, g.nz - 1)), 3, g)
        spec.validate(g)
        for other in (Grid(4, 3, 16), Grid(3, 4, 24)):
            with pytest.raises(ValueError, match="spectrum shape does not match grid"):
                spec.validate(other)
        for order in ([1, 0, 2], [0, 0, 1]):  # decreasing, then a repeated band
            swapped = SubbandSpectrum(lam=spec.lam[..., order], chi=spec.chi[..., order, :])
            with pytest.raises(ValueError, match="not strictly increasing"):
                swapped.validate(g)

    def test_validate_rejects_modes_not_matching_eigenvalues(self):
        g = Grid(3, 3, 16)
        spec = solve_slices(zwell_noise(g, 1), 3, g)
        spec.validate(g)
        # two bands of eigenvalues against three of modes; modes on two of three lateral rows
        for bad in (SubbandSpectrum(spec.lam[..., :2], spec.chi), SubbandSpectrum(spec.lam, spec.chi[:2])):
            with pytest.raises(ValueError, match="spectrum shape does not match grid"):
                bad.validate(g)

    def test_chi_closed_pads_zeros(self):
        g = Grid(2, 2, 16)
        spec = solve_slices(np.zeros((2, 2, g.nz - 1)), 2, g)
        full = band_sum_density(np.ones((2, 2, 2)), spec.chi)
        assert full.shape == (2, 2, g.nz + 1)
        assert np.all(full[..., 0] == 0.0) and np.all(full[..., -1] == 0.0)


class TestModeWeightedIntegrals:
    """The interior-node integrals against the trapezoid rule on zero-padded modes."""

    @staticmethod
    def operands(J, nz):
        g = Grid(3, 2, nz)
        rng = np.random.default_rng(10 * J + nz)
        chi = rng.standard_normal(g.lateral_shape + (J, nz - 1))
        rho_j = rng.uniform(0.0, 2.0, g.lateral_shape + (J,))
        W = rng.standard_normal(g.volume_shape)
        chi2_closed = np.pad(chi, ((0, 0),) * 3 + ((1, 1),)) ** 2
        return g, chi, rho_j, W, chi2_closed

    @pytest.mark.parametrize("J", [1, 4])
    @pytest.mark.parametrize("nz", [4, 32])
    def test_expectations_match_closed_node_trapezoid(self, J, nz):
        g, chi, rho_j, W, chi2_closed = self.operands(J, nz)
        weighted = np.abs(W) * g.z_weights()
        want = np.einsum("abz,abjz->abj", W * g.z_weights(), chi2_closed)
        scale = np.einsum("abz,abjz->abj", weighted, chi2_closed)
        assert np.all(np.abs(mode_expectations(W, chi, g) - want) <= 1e-14 * scale)
        vext = np.abs(W)  # a nonnegative V_ext, as external_potential builds
        pairing = np.sum(scale * rho_j) * (g.hy1 * g.hy2)
        assert abs(external_pairing(rho_j, chi, vext, g) - pairing) <= 1e-14 * pairing

    @pytest.mark.parametrize("J", [1, 4])
    @pytest.mark.parametrize("nz", [4, 32])
    def test_density_bitwise_closed_node_form(self, J, nz):
        g, chi, rho_j, _, chi2_closed = self.operands(J, nz)
        want = np.einsum("abj,abjz->abz", rho_j, chi2_closed)
        got = band_sum_density(rho_j, chi)
        assert got.shape == g.volume_shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestBlockIndependence:
    """A slice's eigenpairs depend on its own potential and guess alone."""

    @staticmethod
    def mixed_slices(g):
        """W and a guess where a third of the slices start converged, the rest not.

        On W = 0 the sine modes are exact, and the guess is exact there too.
        """
        W = zwell_noise(g, 5)
        W[: g.ny1 // 3] = 0.0
        noise = 0.05 * np.random.default_rng(2).standard_normal(W.shape)
        noise[: g.ny1 // 3] = 0.0
        return W, solve_slices(W + noise, 4, g)

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_bitwise_equal_for_every_block_size(self, monkeypatch, warm):
        import subbandeq.schrodinger as sch

        g = Grid(24, 24, 32)
        W, guess = self.mixed_slices(g)
        guess = guess if warm else None
        specs = []
        cols = 4 * (g.nz - 1)  # doubles per slice at J = 4
        for cap in (cols, sch._WORKSET, g.ny1 * g.ny2 * cols):  # one slice, the default, the whole grid
            monkeypatch.setattr(sch, "_WORKSET", cap)
            calls = record_sweeps(monkeypatch)
            specs.append(solve_slices(W, 4, g, guess))
            monkeypatch.undo()
        assert partly_active(calls)  # the whole-grid block
        for spec in specs[1:]:
            assert np.array_equal(spec.lam, specs[0].lam)
            assert np.array_equal(spec.chi, specs[0].chi)

    @pytest.mark.parametrize("nz", [64, 96])
    @pytest.mark.parametrize("J", [1, 2])
    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_lone_column_sums_like_a_batch(self, monkeypatch, nz, J, warm):
        # numpy sums a lone (n, 1) column pairwise: a one-slice block at
        # J = 1, or a sweep with one column left, must still sum row by row
        g = Grid(2, 3, nz)
        n = nz - 1
        W = zwell_noise(g, 4).reshape(-1, n)
        chi_g = None
        if warm:
            chi_g = _solve_block(W + 0.05 * np.random.default_rng(1).standard_normal(W.shape), J, g)[1]
            chi_g[:, :-1] = _solve_block(W, J, g)[1][:, :-1]  # only the top band stays active
        lam, chi = _solve_block(W, J, g, chi_g)
        for i in range(len(W)):
            calls = record_sweeps(monkeypatch)
            l1, c1 = _solve_block(W[i : i + 1], J, g, None if chi_g is None else chi_g[i : i + 1])
            monkeypatch.undo()
            if warm:
                assert 1 in calls[0][1:]  # a sweep with a single active column
            assert np.array_equal(l1[0], lam[i])
            assert np.array_equal(c1[0], chi[i])

    def test_permuting_slices_permutes_the_spectrum(self, monkeypatch):
        g = Grid(24, 24, 32)
        W, guess = self.mixed_slices(g)
        perm = np.random.default_rng(4).permutation(g.ny1 * g.ny2)

        def permuted(x):
            return x.reshape((-1,) + x.shape[2:])[perm].reshape(x.shape)

        spec = solve_slices(W, 4, g, guess)
        calls = record_sweeps(monkeypatch)
        moved = solve_slices(permuted(W), 4, g, SubbandSpectrum(permuted(guess.lam), permuted(guess.chi)))
        assert partly_active(calls)
        assert np.array_equal(moved.lam, permuted(spec.lam))
        assert np.array_equal(moved.chi, permuted(spec.chi))


class TestPivots:
    def test_fast_pivots_bitwise_guarded_where_replayed(self):
        g = Grid(2, 2, 32)
        n, e = g.nz - 1, -0.5 / g.hz**2
        a = np.full(n, 1.0 / g.hz**2)  # W = 0
        guard0 = _EPS * (a[0] + 2.0 * abs(e))
        below = np.nextafter(a[0], -np.inf)
        assert 0.0 < a[0] - below < guard0
        rng = np.random.default_rng(6)
        shift = np.concatenate([
            free_mode_eigenvalue(np.arange(1, n + 1), g),  # exact eigenvalues
            [a[0], below],  # first pivot 0, first pivot nonzero below the guard
            rng.uniform(0.0, 4.0 * a[0], 40),  # generic
        ])
        A = np.repeat(a[:, None], len(shift), axis=1)
        guard = np.full(len(shift), guard0)
        ref = _guarded_pivots(A - shift, e, guard)
        clamped = np.any(ref == -guard, axis=0)
        assert np.any(clamped[:n]) and np.all(clamped[n : n + 2])
        piv = _ldl_pivots(A, shift, e, guard)
        assert np.array_equal(piv, ref)
        assert np.array_equal(np.sum(piv < 0.0, axis=0), np.sum(ref < 0.0, axis=0))

    def test_guarded_restart_bitwise_from_first_clamp(self, monkeypatch):
        # columns of tridiag(e, A, e) whose first clamp sits in the first, a
        # middle or the last row (a zero pivot, then inf), a tiny pivot, NaN
        # and +/-inf diagonals, two clamps, and no clamp at all
        import subbandeq.schrodinger as sch

        n, e = 12, -0.5
        c, guard, mid = e * e, 1e-8, n // 2

        def column(k=None, tiny=0.0, at=None, value=None):
            a = np.full(n, 2.0)
            if at is not None:
                a[at] = value
            if k is not None:  # pivot k comes out exactly 0 (or tiny) unguarded
                piv = _ldl_pivots(a[:, None], np.zeros(1), e, np.full(1, guard))[:, 0]
                a[k] = (c / piv[k - 1] if k else 0.0) + tiny
            return a

        cases = {
            "first": column(0), "middle": column(mid), "last": column(n - 1),
            "tiny": column(mid, tiny=1e-12), "nan": column(at=3, value=np.nan),
            "inf": column(at=5, value=np.inf), "-inf": column(at=5, value=-np.inf),
            "twice": column(n - 2, at=2, value=c / 2.0), "clean": column(),
        }
        rows = []

        def recording(D, e, guard):
            rows.append(len(D))
            return _guarded_pivots(D, e, guard)

        monkeypatch.setattr(sch, "_guarded_pivots", recording)
        for names in [[name] for name in cases] + [list(cases)]:
            A = np.stack([cases[name] for name in names], axis=1)
            g = np.full(len(names), guard)
            ref = _guarded_pivots(A, e, g)
            rows.clear()
            piv = _ldl_pivots(A, np.zeros(len(names)), e, g)
            assert np.array_equal(piv.view(np.uint64), ref.view(np.uint64)), names
            if names == ["last"]:
                assert rows == [1]  # only the last row reruns guarded
            elif names == ["middle"]:
                assert rows == [n - mid]
            elif names in (["clean"], ["inf"], ["-inf"]):
                assert rows == []
        clamped = np.any(ref == -guard, axis=0)
        assert list(clamped) == [True] * 4 + [False] * 3 + [True, False]

    def test_solver_bitwise_guarded_reference(self, monkeypatch):
        g = Grid(32, 32, 16)
        W = zwell_noise(g, 4)
        guess = solve_slices(W + 0.1 * np.random.default_rng(9).standard_normal(W.shape), 6, g)
        replayed = []

        def counting(D, e, guard):
            replayed.append(D.shape[1])
            return _guarded_pivots(D, e, guard)

        monkeypatch.setattr("subbandeq.schrodinger._guarded_pivots", counting)
        fast = solve_slices(W, 6, g, guess)
        assert sum(replayed) > 0
        monkeypatch.setattr(
            "subbandeq.schrodinger._ldl_pivots", lambda A, s, e, gd, out=None: _guarded_pivots(A - s, e, gd)
        )
        ref = solve_slices(W, 6, g, guess)
        assert np.array_equal(fast.lam, ref.lam)
        assert np.array_equal(fast.chi, ref.chi)


class TestWarmStart:
    def test_warm_agrees_with_cold(self):
        g = Grid(24, 24, 64)
        W = zwell_noise(g, 0)
        perturbed = W + 0.05 * np.random.default_rng(1).standard_normal(W.shape)
        guess = solve_slices(perturbed, 4, g)
        cold = solve_slices(W, 4, g)
        warm = solve_slices(W, 4, g, guess)
        warm.validate(g)
        assert np.max(np.abs(warm.lam - cold.lam)) <= 1e-12
        assert np.max(np.abs(warm.chi - cold.chi)) <= 1e-12

    @pytest.mark.parametrize(
        "bands", [[3, 2, 1, 0], [1, 2, 3, 4], [0, 0, 1, 2], None],
        ids=["reversed", "bands_2_5", "duplicated", "zero"],
    )
    def test_bad_guesses_fall_back_to_dense(self, bands):
        # bands 2-5 converge to increasing, disjoint intervals: only the
        # Sturm count at the top one rejects them; zero modes cannot be
        # normalized and must fall back without a warning
        g = Grid(6, 5, 32)
        W = zwell_noise(g, 2)
        n, e = g.nz - 1, -0.5 / g.hz**2
        near = solve_slices(W + 0.01, 6, g)
        if bands is None:
            guess = SubbandSpectrum(near.lam[..., :4], np.zeros_like(near.chi[:, :, :4]))
        else:
            guess = SubbandSpectrum(near.lam[..., bands], near.chi[:, :, bands])
        ok = warm_certified(1.0 / g.hz**2 + W.reshape(-1, n), e, guess.chi.reshape(-1, 4, n))
        assert not np.any(ok)
        spec = solve_slices(W, 4, g, guess)
        spec.validate(g)
        cold = solve_slices(W, 4, g)
        assert np.max(np.abs(spec.lam - cold.lam)) <= 1e-12
        assert np.max(np.abs(spec.chi - cold.chi)) <= 1e-12

    def test_solver_traffic_never_reaches_dense_eigh(self, monkeypatch):
        # a broken warm pass would only show as a slowdown: every slice of
        # random-start solves must be certified by the one warm pass
        from subbandeq.equilibrium import SolverConfig, solve_equilibrium

        certified = []

        def recording(*args):
            ok, sigma = _warm(*args)
            certified.append(bool(np.all(ok)))
            return ok, sigma

        monkeypatch.setattr("subbandeq.schrodinger._warm", recording)
        for seed in (1, 2, 3):
            cfg = SolverConfig(M_target=10.0, grid=Grid(8, 8, 16), vext_kind="zwell",
                               init_kind="random", init_seed=seed)
            assert solve_equilibrium(cfg)[1].converged
        assert len(certified) > 3 and all(certified)

    def test_short_guess_padded_with_sine_modes(self):
        g = Grid(6, 5, 32)
        W = zwell_noise(g, 2)
        cold = solve_slices(W, 4, g)
        spec = solve_slices(W, 4, g, solve_slices(W, 3, g))
        spec.validate(g)
        assert np.max(np.abs(spec.lam - cold.lam)) <= 1e-12
        assert np.max(np.abs(spec.chi - cold.chi)) <= 1e-12

    def test_last_resort_matches_reference(self):
        eigh_tridiagonal = pytest.importorskip("scipy.linalg").eigh_tridiagonal

        g = Grid(4, 4, 96)
        W = double_well(g)
        n, e = g.nz - 1, -0.5 / g.hz**2
        a = 1.0 / g.hz**2 + W.reshape(-1, n)
        ok = warm_certified(a, e, np.broadcast_to(sine_modes(6, g), (len(a), 6, n)))
        assert not np.any(ok)  # every slice reaches the dense eigensolver
        spec = solve_slices(W, 6, g)
        spec.validate(g)
        for i, lam in enumerate(spec.lam.reshape(-1, 6)):
            ref = eigh_tridiagonal(a[i], np.full(n - 1, e), eigvals_only=True,
                                   select="i", select_range=(0, 5))
            assert np.max(np.abs(lam - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_certified_eigenvalues_are_the_warm_rayleigh_quotients(self, monkeypatch):
        import subbandeq.schrodinger as sch

        g, J = Grid(8, 8, 32), 4
        n = g.nz - 1
        W = zwell_noise(g, 3).reshape(-1, n)
        chi_g = _solve_block(W + 0.05 * np.random.default_rng(2).standard_normal(W.shape), J, g)[1]
        results = []

        def recording(*args):
            ok, sigma = _warm(*args)
            results.append((ok.copy(), sigma.copy()))
            return ok, sigma

        monkeypatch.setattr(sch, "_warm", recording)
        for guess in (None, chi_g):
            results.clear()
            lam = _solve_block(W, J, g, guess)[0]
            (ok, sigma), = results
            assert np.all(ok)
            assert np.array_equal(lam.view(np.uint64), sigma.reshape(J, -1).T.view(np.uint64))

    def test_dense_eigenvalues_are_eighs(self):
        g, J = Grid(4, 4, 96), 6
        n, e = g.nz - 1, -0.5 / g.hz**2
        W = double_well(g).reshape(-1, n)
        a = 1.0 / g.hz**2 + W
        assert not np.any(warm_certified(a, e, np.broadcast_to(sine_modes(J, g), (len(a), J, n))))
        lam = _solve_block(W, J, g)[0]
        for i in range(len(a)):
            T = np.diag(a[i]) + e * (np.eye(n, k=1) + np.eye(n, k=-1))
            assert np.array_equal(lam[i].view(np.uint64), np.linalg.eigh(T)[0][:J].view(np.uint64))

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_eigenvalues_are_rayleigh_quotients_of_the_modes(self, warm):
        # certified slices (zwell plus noise) and, cold, dense ones (double well)
        for g, J, seed in ((Grid(6, 5, 32), 4, 2), (Grid(16, 16, 64), 6, 7), (Grid(2, 2, 96), 6, None)):
            W = double_well(g) if seed is None else zwell_noise(g, seed)
            guess = solve_slices(W + 0.01, J, g) if warm else None
            spec = solve_slices(W, J, g, guess)
            chi = spec.chi
            ref = np.sum(chi * tridiagonal_apply(W[..., None, :], chi, g), axis=-1) / np.sum(chi * chi, axis=-1)
            norm = np.max(np.abs(1.0 / g.hz**2 + W), axis=-1) + 1.0 / g.hz**2  # ||T|| bound
            assert np.all(np.abs(spec.lam - ref) <= 2.0 * _EPS * norm[..., None])

    def test_dense_pairs_sorted_by_rayleigh_quotient(self):
        # a symmetric double well: its two lowest eigenvalues agree to
        # rounding.  The slice takes dense eigh's eigenvalues, which come in
        # ascending order, and each with its own vector is an eigenpair
        g = Grid(2, 2, 64)
        W = np.zeros(g.nz - 1)
        W[[7, 8, 54, 55]] = -4000.0  # nodes z = 8/64, 9/64 and their mirror images
        e = -0.5 / g.hz**2
        a = 1.0 / g.hz**2 + W
        ok = warm_certified(a[None], e, sine_modes(4, g)[None])
        assert not np.any(ok)  # the slice reaches the dense eigensolver
        lam, chi = solve_slice(W, 4, g)
        assert np.all(np.diff(lam) >= 0.0)
        rho = 8.0 * _EPS * (np.max(np.abs(a)) + 2.0 * abs(e))
        for j in range(4):
            r = tridiagonal_apply(W, chi[j], g) - lam[j] * chi[j]
            assert np.linalg.norm(r) <= rho * np.linalg.norm(chi[j])

    def test_bitwise_identical_across_blas_thread_counts(self, run_python):
        script = (
            "import hashlib, numpy as np\n"
            "from subbandeq.grid import Grid\n"
            "from subbandeq.schrodinger import solve_slices\n"
            "g = Grid(24, 24, 64)\n"
            "z = g.z_nodes()[1:-1]\n"
            "rng = np.random.default_rng(3)\n"
            "W = 8.0 * z * (1.0 - z) + 0.5 * rng.standard_normal((24, 24, 63))\n"
            "guess = solve_slices(W + 0.05 * rng.standard_normal(W.shape), 4, g)\n"
            "spec = solve_slices(W, 4, g, guess)\n"
            "print(hashlib.sha256(spec.lam.tobytes() + spec.chi.tobytes()).hexdigest())\n"
            + inspect.getsource(double_well)
            + "g = Grid(4, 4, 96)\n"  # every slice reaches the last resort
            "spec = solve_slices(double_well(g), 6, g)\n"
            "print(hashlib.sha256(spec.lam.tobytes() + spec.chi.tobytes()).hexdigest())\n"
        )
        digests = [run_python("-c", script, threads=n).stdout for n in (1, 2)]
        assert digests[0] == digests[1]

    def test_working_set_bounded_by_block(self):
        # 1024 and 4096 slices: the memory beyond the returned arrays is
        # that of one block, not proportional to the slice count
        extra = []
        for ny in (32, 64):
            g = Grid(ny, ny, 16)
            W = zwell_noise(g, 4)
            guess = solve_slices(W + 0.01, 6, g)
            tracemalloc.start()
            try:
                spec = solve_slices(W, 6, g, guess)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            extra.append(peak - spec.lam.nbytes - spec.chi.nbytes)
        assert extra[1] <= 1.25 * extra[0]

    def test_warm_solve_peak_within_its_workspace(self, monkeypatch):
        # _solve_block's working set beyond chi: three arrays of B * J * n
        # doubles and the diagonals (n, B), plus vectors of a few values per
        # column (the sweep state, the pivot check's masks).  One more array
        # of the block's size, as a per-sweep temporary, would not fit.
        import subbandeq.schrodinger as sch

        g, J = Grid(32, 32, 16), 3
        n = g.nz - 1
        B = min(g.ny1 * g.ny2, sch._WORKSET // (J * n))
        assert B == g.ny1 * g.ny2  # one block
        W = zwell_noise(g, 4)
        guess = solve_slices(W + 0.01 * np.random.default_rng(1).standard_normal(W.shape), J, g)
        solve_slices(W, J, g, guess)
        calls = record_sweeps(monkeypatch)
        tracemalloc.start()
        try:
            spec = solve_slices(W, J, g, guess)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(calls[0]) >= 3  # sweeps ran
        workspace = 8 * (3 * B * J * n + n * B + 24 * B * J)
        assert peak - spec.lam.nbytes - spec.chi.nbytes <= workspace
