"""Benchmark instance builders: grids, Laplacians, right-hand sides."""

import numpy as np
import pytest

from fracsum.problems import Grid1D, RhsSpec, laplacian_1d, sample_rhs
from fracsum.solver import MemoryCapError
from fracsum.tensors import CPTensor, TTTensor

from _oracles import numerical_multilinear_ranks


class TestGrid:
    def test_spacing_and_points(self):
        g = Grid1D(5)
        assert g.h == 0.25
        np.testing.assert_allclose(g.points, [0.25, 0.5, 0.75, 1.0, 1.25])
        assert np.all(np.diff(g.points) > 0)

    def test_too_small(self):
        with pytest.raises(ValueError):
            Grid1D(1)


class TestLaplacian:
    def test_three_point_stencil(self):
        a = laplacian_1d(3)
        np.testing.assert_array_equal(a, 4.0 * np.array([[2, -1, 0], [-1, 2, -1], [0, -1, 2]]))

    def test_symmetry(self):
        a = laplacian_1d(40)
        assert np.max(np.abs(a - a.T)) == 0.0

    @pytest.mark.parametrize("n", [2, 5, 17, 64, 200])
    def test_analytic_spectrum(self, n):
        h = 1.0 / (n - 1)
        k = np.arange(1, n + 1)
        analytic = (4.0 / h**2) * np.sin(k * np.pi / (2.0 * (n + 1))) ** 2
        computed = np.linalg.eigvalsh(laplacian_1d(n))
        np.testing.assert_allclose(computed, analytic, rtol=1e-10, atol=1e-10 / h**2)

    def test_positive_definite_up_to_large_n(self):
        # analytic smallest eigenvalue stays positive for every tabulated size
        for n in (2, 64, 512, 2048, 4096):
            h = 1.0 / (n - 1)
            lam_min = (4.0 / h**2) * np.sin(np.pi / (2.0 * (n + 1))) ** 2
            assert lam_min > 0.0
            assert lam_min < 4.0 / h**2

    def test_too_small(self):
        with pytest.raises(ValueError):
            laplacian_1d(1)


class TestRhsSpec:
    def test_separable_needs_three_modes(self):
        with pytest.raises(ValueError):
            RhsSpec(kind="separable", d=4)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            RhsSpec(kind="gaussian_bump", d=3)

    def test_custom_needs_callable(self):
        with pytest.raises(ValueError):
            RhsSpec(kind="custom", d=2)


class TestSampleRhs:
    def test_separable_is_exact_rank_one(self):
        grids = [Grid1D(4)] * 3
        rhs = sample_rhs(RhsSpec(kind="separable", d=3), grids)
        assert isinstance(rhs, CPTensor)
        assert rhs.rank == 1
        x, y, z = (g.points for g in grids)
        expected = np.multiply.outer(np.multiply.outer(np.sin(x), np.cos(y)), np.exp(z))
        np.testing.assert_allclose(rhs.to_dense(), expected, atol=1e-15)
        assert numerical_multilinear_ranks(rhs.to_dense()) == (1, 1, 1)

    def test_inv_linear_first_interior_point(self):
        grids = [Grid1D(8)] * 3
        rhs = sample_rhs(RhsSpec(kind="inv_linear", d=3), grids)
        h = grids[0].h
        assert rhs[0, 0, 0] == pytest.approx(1.0 / (1.0 + 3.0 * h), rel=1e-15)

    def test_random_rank_one_is_reproducible(self):
        grids = [Grid1D(6)] * 3
        a = sample_rhs(RhsSpec(kind="random_rank1", d=3, seed=42), grids)
        b = sample_rhs(RhsSpec(kind="random_rank1", d=3, seed=42), grids)
        c = sample_rhs(RhsSpec(kind="random_rank1", d=3, seed=43), grids)
        np.testing.assert_array_equal(a.to_dense(), b.to_dense())
        assert np.linalg.norm(a.to_dense() - c.to_dense()) > 0.0

    def test_inv_linear_train_above_cap(self):
        grids = [Grid1D(8)] * 5
        # below the 8**5 dense entries, above the 5,104 of the train's largest raw carriage
        rhs = sample_rhs(RhsSpec(kind="inv_linear", d=5), grids, memory_cap=6000)
        assert isinstance(rhs, TTTensor)
        dense = sample_rhs(RhsSpec(kind="inv_linear", d=5), grids)
        assert np.linalg.norm(rhs.to_dense() - dense) <= 1e-8 * np.linalg.norm(dense)

    def test_inv_linear_train_pointwise_samples(self):
        grids = [Grid1D(10)] * 4
        # below the 10**4 dense entries, above the 5,320 of the train's largest raw carriage
        rhs = sample_rhs(RhsSpec(kind="inv_linear", d=4), grids, memory_cap=6000)
        dense = rhs.to_dense()
        rng = np.random.default_rng(5)
        pts = grids[0].points
        for _ in range(100):
            idx = tuple(rng.integers(0, 10, 4))
            expected = 1.0 / (1.0 + sum(pts[i] for i in idx))
            assert dense[idx] == pytest.approx(expected, abs=1e-8)

    def test_inv_linear_train_guards_its_raw_carriages(self):
        with pytest.raises(MemoryCapError, match="inv_linear train needs 372880 entries, cap is 100000"):
            sample_rhs(RhsSpec(kind="inv_linear", d=4), [Grid1D(40)] * 4, memory_cap=100000)
        assert isinstance(sample_rhs(RhsSpec(kind="inv_linear", d=4), [Grid1D(20)] * 4, memory_cap=100000), TTTensor)

    def test_custom_kind(self):
        grids = [Grid1D(4), Grid1D(5)]
        spec = RhsSpec(kind="custom", d=2, fn=lambda x, y: x * y**2)
        rhs = sample_rhs(spec, grids)
        expected = np.multiply.outer(grids[0].points, grids[1].points ** 2)
        np.testing.assert_allclose(rhs, expected, atol=1e-15)

    def test_custom_result_takes_the_grid_shape(self):
        grids = [Grid1D(4)] * 3
        pts = grids[0].points
        rhs = sample_rhs(RhsSpec(kind="custom", d=3, fn=lambda x, y, z: 1 + x + y), grids)
        assert rhs.shape == (4, 4, 4) and rhs.flags.writeable
        np.testing.assert_array_equal(rhs, np.broadcast_to((1 + pts[:, None, None]) + pts[None, :, None], (4, 4, 4)))
        rhs = sample_rhs(RhsSpec(kind="custom", d=3, fn=lambda x, y, z: 2.5), grids)
        np.testing.assert_array_equal(rhs, np.full((4, 4, 4), 2.5))

    def test_custom_full_shape_result_is_not_copied(self):
        full = np.ones((4, 5))
        assert sample_rhs(RhsSpec(kind="custom", d=2, fn=lambda x, y: full), [Grid1D(4), Grid1D(5)]) is full

    def test_custom_respects_cap(self):
        grids = [Grid1D(10)] * 3
        spec = RhsSpec(kind="custom", d=3, fn=lambda x, y, z: x + y + z)
        with pytest.raises(MemoryCapError):
            sample_rhs(spec, grids, memory_cap=100)

    def test_custom_count_does_not_wrap(self):
        # 16**16 = 2**64 entries wraps to 0 in int64; fn must never run
        def sentinel(*coords):
            raise AssertionError("custom rhs sampled above the cap")

        with pytest.raises(MemoryCapError):
            sample_rhs(RhsSpec(kind="custom", d=16, fn=sentinel), [Grid1D(16)] * 16)

    def test_grid_count_must_match(self):
        with pytest.raises(ValueError):
            sample_rhs(RhsSpec(kind="inv_linear", d=3), [Grid1D(4)] * 2)
