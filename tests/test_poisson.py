import numpy as np
import pytest

from subbandeq.grid import Grid
from subbandeq.poisson import (
    apply_operator,
    dirichlet_energy,
    neumann_cosine_basis,
    potential_pairing,
    solve_poisson,
)
from subbandeq.validation import manufactured_poisson_case


class TestSolvePoisson:
    def test_zero_density(self):
        g = Grid(6, 6, 12)
        U = solve_poisson(np.zeros(g.volume_shape), g)
        assert np.all(U == 0.0)

    def test_manufactured_solution_convergence(self):
        errors = []
        for n in (16, 32, 64):
            g, u_star, rho = manufactured_poisson_case(n)
            U = solve_poisson(rho, g)
            errors.append(np.max(np.abs(U - u_star)))
        assert 3.5 <= errors[0] / errors[1] <= 4.5
        assert 3.5 <= errors[1] / errors[2] <= 4.5

    def test_linearity(self):
        g = Grid(8, 8, 16)
        rng = np.random.default_rng(0)
        r1 = rng.standard_normal(g.volume_shape)
        r2 = rng.standard_normal(g.volume_shape)
        u12 = solve_poisson(2.0 * r1 - 0.5 * r2, g)
        u1 = solve_poisson(r1, g)
        u2 = solve_poisson(r2, g)
        scale = np.max(np.abs(u12))
        assert np.max(np.abs(u12 - 2.0 * u1 + 0.5 * u2)) <= 1e-9 * scale

    def test_maximum_principle_surrogate(self):
        # nonnegative density gives a nonnegative potential (M-matrix)
        g = Grid(8, 8, 16)
        rng = np.random.default_rng(1)
        rho = rng.uniform(0.0, 1.0, g.volume_shape)
        U = solve_poisson(rho, g)
        assert np.min(U) >= -1e-12 * np.max(U)

    def test_operator_residual_at_rounding(self):
        # the solve is direct: A U = V rho to rounding, on a non-square,
        # non-unit cross-section and on the acceptance grid
        rng = np.random.default_rng(5)
        for g in (Grid(5, 7, 12, L1=1.0, L2=2.0), Grid(24, 24, 64)):
            for rho in (rng.standard_normal(g.volume_shape), rng.uniform(0.0, 1.0, g.volume_shape)):
                U = solve_poisson(rho, g)
                b = g.node_volumes() * rho
                res = np.linalg.norm(apply_operator(U, g) - b)
                assert res <= 1e-12 * np.linalg.norm(b)

    def test_closed_form_z_basis(self):
        # V^T Wz V = I and Kz V = Wz V diag(s) for the Neumann stiffness Kz
        for nz in (5, 12, 64):
            g = Grid(2, 2, nz)
            V, s = neumann_cosine_basis(g)
            W = np.diag(g.z_weights())
            D = np.diff(np.eye(nz + 1), axis=0)
            K = D.T @ D
            np.testing.assert_allclose(V.T @ W @ V, np.eye(nz + 1), rtol=0, atol=1e-13)
            np.testing.assert_allclose(K @ V, W @ V * s, rtol=0, atol=1e-13)

    def test_bitwise_identical_across_blas_thread_counts(self, run_python):
        # 24 x 24 x 64 is large enough for BLAS to split the transforms
        # across threads; the tiny verify run in test_cli is not
        script = (
            "import hashlib, numpy as np\n"
            "from subbandeq.grid import Grid\n"
            "from subbandeq.poisson import solve_poisson\n"
            "g = Grid(24, 24, 64)\n"
            "rho = np.random.default_rng(1).uniform(0.0, 1.0, g.volume_shape)\n"
            "print(hashlib.sha256(solve_poisson(rho, g).tobytes()).hexdigest())\n"
        )
        digests = [run_python("-c", script, threads=n).stdout for n in (1, 2)]
        assert digests[0] == digests[1]

    def test_returns_volume_array(self):
        g = Grid(4, 4, 8)
        U = solve_poisson(np.ones(g.volume_shape), g)
        assert type(U) is np.ndarray and U.shape == g.volume_shape


class TestWeakFormIdentity:
    def test_pairing_equals_energy_on_solves(self):
        g = Grid(10, 10, 20)
        rng = np.random.default_rng(2)
        for _ in range(5):
            rho = rng.standard_normal(g.volume_shape)
            U = solve_poisson(rho, g)
            e = dirichlet_energy(U, g)
            assert abs(potential_pairing(U, rho, g) - e) <= 1e-8 * e

    def test_manufactured_pairing(self):
        g, u_star, rho = manufactured_poisson_case(24)
        U = solve_poisson(rho, g)
        e = dirichlet_energy(U, g)
        assert abs(potential_pairing(U, rho, g) - e) <= 1e-8 * e

    def test_operator_is_gradient_adjoint(self):
        # <A u, v> = sum of edge-weighted gradient products = polarization of
        # the energy; checked via the parallelogram identity
        g = Grid(5, 6, 10)
        rng = np.random.default_rng(3)
        u = rng.standard_normal(g.volume_shape)
        v = rng.standard_normal(g.volume_shape)
        lhs = float(np.sum(apply_operator(u, g) * v))
        rhs = 0.25 * (dirichlet_energy(u + v, g) - dirichlet_energy(u - v, g))
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestEnergies:
    def test_zero_field(self):
        g = Grid(4, 4, 8)
        z = np.zeros(g.volume_shape)
        assert dirichlet_energy(z, g) == 0.0
        assert potential_pairing(z, z, g) == 0.0

    def test_quadratic_scaling(self):
        g = Grid(5, 5, 10)
        rng = np.random.default_rng(4)
        u = rng.standard_normal(g.volume_shape)
        assert dirichlet_energy(3.0 * u, g) == pytest.approx(
            9.0 * dirichlet_energy(u, g), rel=1e-13
        )
