import inspect
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import subbandeq

from subbandeq.grid import Grid
from subbandeq.schrodinger import (
    _EPS,
    SubbandSpectrum,
    _guarded_pivots,
    _ldl_pivots,
    _warm,
    free_mode_eigenvalue,
    profile_kinetic_energy,
    solve_slice,
    sine_modes,
    solve_slices,
    zero_extend,
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


def tridiagonal_apply(W, chi, grid):
    hz = grid.hz
    out = (1.0 / hz**2 + W) * chi
    out[:-1] -= 0.5 / hz**2 * chi[1:]
    out[1:] -= 0.5 / hz**2 * chi[:-1]
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

    def test_chi_closed_pads_zeros(self):
        g = Grid(2, 2, 16)
        spec = solve_slices(np.zeros((2, 2, g.nz - 1)), 2, g)
        full = zero_extend(spec.chi)
        assert full.shape == (2, 2, 2, g.nz + 1)
        assert np.all(full[..., 0] == 0.0) and np.all(full[..., -1] == 0.0)


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
            "subbandeq.schrodinger._ldl_pivots", lambda A, s, e, gd: _guarded_pivots(A - s, e, gd)
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
        "bands", [[3, 2, 1, 0], [1, 2, 3, 4], [0, 0, 1, 2]],
        ids=["reversed", "bands_2_5", "duplicated"],
    )
    def test_bad_guesses_fall_back_to_dense(self, bands):
        # bands 2-5 converge to increasing, disjoint intervals: only the
        # Sturm count at the top one rejects them
        g = Grid(6, 5, 32)
        W = zwell_noise(g, 2)
        n, e = g.nz - 1, -0.5 / g.hz**2
        near = solve_slices(W + 0.01, 6, g)
        _, ok = _warm(1.0 / g.hz**2 + W.reshape(-1, n), e, near.chi[:, :, bands].reshape(-1, 4, n))
        assert not np.any(ok)
        spec = solve_slices(W, 4, g, SubbandSpectrum(near.lam[..., bands], near.chi[:, :, bands]))
        spec.validate(g)
        cold = solve_slices(W, 4, g)
        assert np.max(np.abs(spec.lam - cold.lam)) <= 1e-12
        assert np.max(np.abs(spec.chi - cold.chi)) <= 1e-12

    def test_solver_traffic_never_reaches_dense_eigh(self, monkeypatch):
        # a broken warm pass would only show as a slowdown: every slice of
        # random-start solves must be certified by the one warm pass
        from subbandeq.equilibrium import SolverConfig, solve_equilibrium

        certified = []

        def recording(a, e, chi_g):
            V, ok = _warm(a, e, chi_g)
            certified.append(bool(np.all(ok)))
            return V, ok

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
        from scipy.linalg import eigh_tridiagonal

        g = Grid(4, 4, 96)
        W = double_well(g)
        n, e = g.nz - 1, -0.5 / g.hz**2
        a = 1.0 / g.hz**2 + W.reshape(-1, n)
        _, ok = _warm(a, e, np.broadcast_to(sine_modes(6, g), (len(a), 6, n)))
        assert not np.any(ok)  # every slice reaches the dense eigensolver
        spec = solve_slices(W, 6, g)
        spec.validate(g)
        for i, lam in enumerate(spec.lam.reshape(-1, 6)):
            ref = eigh_tridiagonal(a[i], np.full(n - 1, e), eigvals_only=True,
                                   select="i", select_range=(0, 5))
            assert np.max(np.abs(lam - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_dense_pairs_sorted_by_rayleigh_quotient(self):
        # a symmetric double well: its two lowest eigenvalues agree to
        # rounding, and the Rayleigh quotients of dense eigh's vectors can
        # come out of order; the pairs are reordered together
        g = Grid(2, 2, 64)
        W = np.zeros(g.nz - 1)
        W[[7, 8, 54, 55]] = -4000.0  # nodes z = 8/64, 9/64 and their mirror images
        e = -0.5 / g.hz**2
        a = 1.0 / g.hz**2 + W
        _, ok = _warm(a[None], e, sine_modes(4, g)[None])
        assert not np.any(ok)  # the slice reaches the dense eigensolver
        lam, chi = solve_slice(W, 4, g)
        assert np.all(np.diff(lam) >= 0.0)
        rho = 8.0 * _EPS * (np.max(np.abs(a)) + 2.0 * abs(e))
        for j in range(4):
            r = tridiagonal_apply(W, chi[j], g) - lam[j] * chi[j]
            assert np.linalg.norm(r) <= rho * np.linalg.norm(chi[j])

    def test_bitwise_identical_across_blas_thread_counts(self):
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
        src = str(Path(subbandeq.__file__).resolve().parents[1])
        digests = []
        for threads in ("1", "2"):
            env = {
                **os.environ,
                "OPENBLAS_NUM_THREADS": threads,
                "OMP_NUM_THREADS": threads,
                "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
            }
            run = subprocess.run(
                [sys.executable, "-c", script], env=env, check=True, capture_output=True,
                text=True, timeout=120,
            )
            digests.append(run.stdout)
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
