import numpy as np
import pytest

from subbandeq.grid import Grid, l2_norm_volume
from subbandeq.poisson import dirichlet_energy, solve_poisson


class TestGrid:
    def test_spacings(self):
        g = Grid(9, 19, 40, L1=1.0, L2=2.0)
        assert g.hy1 == pytest.approx(0.1)
        assert g.hy2 == pytest.approx(0.1)
        assert g.hz == pytest.approx(0.025)

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            Grid(1, 8, 16)
        with pytest.raises(ValueError):
            Grid(8, 8, 3)
        with pytest.raises(ValueError):
            Grid(8, 8, 16, L1=-1.0)

    @pytest.mark.parametrize("sizes", [(2.5, 3, 8), (3.0, 3, 8), (3, 3.0, 8), (3, 3, 8.0)])
    def test_non_integral_sizes_rejected(self, sizes):
        # a float size would construct, then fail in np.zeros(grid.volume_shape)
        with pytest.raises(TypeError):
            Grid(*sizes)

    def test_numpy_integer_sizes_accepted(self):
        g = Grid(np.int64(3), np.int32(3), np.int64(8))
        assert np.zeros(g.volume_shape).shape == (3, 3, 9)

    def test_z_weights_sum_to_one(self):
        g = Grid(4, 4, 12)
        assert np.sum(g.z_weights()) == pytest.approx(1.0, abs=1e-15)


# Every function taking a volume field runs the same shape and finiteness check.
VOLUME_FIELD_FUNCTIONS = (l2_norm_volume, dirichlet_energy, solve_poisson)


class TestFields:
    def test_rejects_nonfinite(self):
        g = Grid(4, 4, 8)
        for bad in (np.nan, np.inf, -np.inf):
            v = np.ones(g.volume_shape)
            v[1, 2, 3] = bad
            for fn in VOLUME_FIELD_FUNCTIONS:
                with pytest.raises(ValueError, match="non-finite"):
                    fn(v, g)

    def test_shape_mismatch(self):
        g = Grid(4, 4, 8)
        for shape in ((3, 4, 9), (4, 4, 8), (4, 4), (1, 4, 4, 9)):
            for fn in VOLUME_FIELD_FUNCTIONS:
                with pytest.raises(ValueError, match="shape"):
                    fn(np.ones(shape), g)


class TestIntegrateLateral:
    @pytest.mark.parametrize("n", [8, 16, 32])
    def test_constant_one(self, n):
        # node rule with zero extension integrates 1 to n^2 h^2 = (n/(n+1))^2 on the unit square
        g = Grid(n, n, 8)
        assert g.lateral_area() == pytest.approx((n / (n + 1)) ** 2, rel=1e-14)


class TestIntegrateZ:
    def test_constant(self):
        g = Grid(4, 4, 16)
        assert np.sum(np.ones(17) * g.z_weights()) == pytest.approx(1.0, abs=1e-15)

    def test_linear_exact(self):
        g = Grid(4, 4, 16)
        assert np.sum(g.z_nodes() * g.z_weights()) == pytest.approx(0.5, abs=1e-15)

    def test_sin_squared_second_order(self):
        # int sin^2(pi z) dz = 1/2; refined trapezoid as oracle
        errors = []
        for nz in (16, 32, 64):
            g = Grid(4, 4, nz)
            p = np.sin(np.pi * g.z_nodes()) ** 2
            errors.append(abs(np.sum(p * g.z_weights()) - 0.5))
        # sin^2 is resolved superconvergently by the trapezoid rule; just
        # require at least second-order decay
        if errors[0] > 1e-14:
            assert errors[1] <= errors[0] / 3.5
