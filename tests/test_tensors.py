"""Tensor formats and rank-controlled arithmetic."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracsum import tensors
from fracsum.tensors import (
    CPTensor,
    MemoryCapError,
    TTTensor,
    TuckerTensor,
    _as_cores,
    _cp_to_tt,
    _term_sum,
    _tt_hadamard_round,
    cp_als,
    hosvd,
    multi_mode_product,
    tt_mode_product,
    tt_norm,
    tt_round,
    tt_svd,
    unfold,
)

from _oracles import mode_product, numerical_multilinear_ranks, tt_add, tt_hadamard_round_face_split, vec


def rand(shape, seed=0):
    return np.random.default_rng(seed).standard_normal(shape)


def random_orthonormal(n, r, seed=0):
    q, _ = np.linalg.qr(rand((n, r), seed))
    return q


def along(x, mode, a):
    """``x`` times ``a`` along ``mode`` alone, through the one kernel: identities on the other modes."""
    return multi_mode_product(x, [a if i == mode else np.eye(n) for i, n in enumerate(x.shape)])


class TestUnfoldAndVec:
    def test_matrix_case(self):
        x = rand((3, 5), 1)
        np.testing.assert_array_equal(unfold(x, 0), x)
        np.testing.assert_array_equal(unfold(x, 1), x.T)

    def test_shapes_and_roundtrip(self):
        x = rand((2, 3, 4), 2)
        assert unfold(x, 0).shape == (2, 12)
        assert unfold(x, 1).shape == (3, 8)
        assert unfold(x, 2).shape == (4, 6)
        # columns follow the column-major order of the remaining indices
        np.testing.assert_array_equal(unfold(x, 1)[:, 1], x[1, :, 0])
        np.testing.assert_array_equal(unfold(x, 1)[:, 2], x[0, :, 1])

    def test_rank_one_unfoldings(self):
        u, v, w = rand(4, 3), rand(5, 4), rand(6, 5)
        x = np.multiply.outer(np.multiply.outer(u, v), w)
        assert numerical_multilinear_ranks(x) == (1, 1, 1)

    def test_mode_out_of_range(self):
        with pytest.raises(IndexError):
            unfold(rand((2, 2), 1), 2)


class TestModeProduct:
    def test_matrix_case(self):
        x, a = rand((4, 5), 1), rand((3, 4), 2)
        np.testing.assert_allclose(along(x, 0, a), a @ x, atol=1e-14)
        b = rand((6, 5), 3)
        np.testing.assert_allclose(along(x, 1, b), x @ b.T, atol=1e-14)

    def test_identity(self):
        x = rand((3, 4, 5), 4)
        np.testing.assert_array_equal(along(x, 1, np.eye(4)), x)

    def test_commutation_of_distinct_modes(self):
        x = rand((3, 3, 3), 5)
        a, b = rand((3, 3), 6), rand((3, 3), 7)
        left = along(along(x, 2, b), 0, a)
        right = along(along(x, 0, a), 2, b)
        np.testing.assert_allclose(left, right, atol=1e-13)

    def test_unfold_identity(self):
        x = rand((4, 3, 6), 8)
        a = rand((5, 3), 9)
        y = along(x, 1, a)
        np.testing.assert_allclose(unfold(y, 1), a @ unfold(x, 1), atol=1e-13)

    def test_kronecker_identity_middle_mode(self):
        # vec(X x_2 A) == (I (x) A (x) I) vec(X) for d = 3, n = 4
        x = rand((4, 4, 4), 10)
        a = rand((4, 4), 11)
        k = np.kron(np.eye(4), np.kron(a, np.eye(4)))
        np.testing.assert_allclose(vec(along(x, 1, a)), k @ vec(x), atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            along(rand((3, 4), 1), 0, rand((3, 5), 2))

    def test_rank_never_grows(self):
        u, v, w = rand(6, 1), rand(6, 2), rand(6, 3)
        x = np.multiply.outer(np.multiply.outer(u, v), w) + np.multiply.outer(
            np.multiply.outer(rand(6, 4), rand(6, 5)), rand(6, 6)
        )
        base = numerical_multilinear_ranks(x)
        y = along(x, 1, rand((6, 6), 7))
        assert all(r <= s for r, s in zip(numerical_multilinear_ranks(y), base))

    def test_multi_mode_product_is_the_chain_of_mode_products(self):
        x = rand((2, 3, 4, 5), 12)
        mats = [rand((m, n), 13 + i) for i, (m, n) in enumerate(zip((4, 1, 6, 3), x.shape))]
        chain = x
        for i, a in enumerate(mats):
            chain = mode_product(chain, i, a)
        y = multi_mode_product(x, mats)
        assert y.shape == (4, 1, 6, 3)
        np.testing.assert_allclose(y, chain, rtol=0, atol=1e-13 * np.linalg.norm(chain))
        with pytest.raises(ValueError, match="one matrix per mode"):
            multi_mode_product(x, mats[:3])
        with pytest.raises(ValueError, match="mode 2"):
            multi_mode_product(x, mats[:2] + [rand((6, 5), 20), mats[3]])


def formatted(kind, shape, seed):
    """A CP, Tucker or tensor-train tensor of the given shape."""
    if kind == "cp":
        return CPTensor(tuple(rand((n, 3), seed + i) for i, n in enumerate(shape)))
    if kind == "tucker":
        factors = tuple(random_orthonormal(n, 2, seed + i) for i, n in enumerate(shape))
        return TuckerTensor(rand((2,) * len(shape), seed), factors)
    return rand_tt(shape, (2,) * (len(shape) - 1), seed)


class TestMultiModeProductFormats:
    @pytest.mark.parametrize("kind", ["cp", "tucker", "tt"])
    def test_equals_densify_then_multiply(self, kind):
        # the 2-way train has only boundary carriages
        for shape, out in [((4, 5, 3), (6, 5, 4)), ((4, 3), (5, 3))]:
            x = formatted(kind, shape, 40)
            # matrices with orthonormal columns keep Tucker factors orthonormal; they also change the extents
            mats = [random_orthonormal(m, n, 50 + i) for i, (m, n) in enumerate(zip(out, x.shape))]
            y = multi_mode_product(x, mats)
            assert type(y) is type(x) and y.shape == out
            dense = multi_mode_product(x.to_dense(), mats)
            np.testing.assert_allclose(y.to_dense(), dense, rtol=0, atol=1e-13 * np.linalg.norm(dense))

    def test_train_pass_is_the_chain_of_tt_mode_products_bit_for_bit(self):
        x = rand_tt((4, 5, 3, 6), (2, 3, 2), 42)
        mats = [rand((m, n), 60 + i) for i, (m, n) in enumerate(zip((3, 5, 2, 4), x.shape))]
        chain = x
        for i, a in enumerate(mats):
            chain = tt_mode_product(chain, i, a)
        y = multi_mode_product(x, mats)
        assert [c.tobytes() for c in y.carriages] == [c.tobytes() for c in chain.carriages]

    @pytest.mark.parametrize("kind", ["cp", "tucker", "tt"])
    def test_one_line_error_for_a_wrong_count_or_extent(self, kind):
        x = formatted(kind, (4, 5, 3), 41)
        mats = [np.eye(n) for n in x.shape]
        with pytest.raises(ValueError, match=r"^need one matrix per mode: got 2 for a 3-way tensor$"):
            multi_mode_product(x, mats[:2])
        with pytest.raises(ValueError, match=r"^matrix of shape \(5, 6\) does not match mode 1 of extent 5$"):
            multi_mode_product(x, [mats[0], np.eye(5, 6), mats[2]])


class TestHosvd:
    def test_exact_recovery_of_constructed_tucker(self):
        core = rand((2, 3, 2), 1)
        us = [random_orthonormal(6, 2, 2), random_orthonormal(7, 3, 3), random_orthonormal(5, 2, 4)]
        x = multi_mode_product(core, us)
        t = hosvd(x, tol=1e-10)
        assert t.ranks == (2, 3, 2)
        np.testing.assert_allclose(t.to_dense(), x, atol=1e-12)

    def test_full_rank_reconstruction(self):
        x = rand((4, 5, 3), 5)
        t = hosvd(x, ranks=x.shape)
        assert np.linalg.norm(t.to_dense() - x) <= 1e-12 * np.linalg.norm(x)

    def test_two_rank_one_terms(self):
        x = np.multiply.outer(np.multiply.outer(rand(5, 1), rand(5, 2)), rand(5, 3))
        x = x + np.multiply.outer(np.multiply.outer(rand(5, 4), rand(5, 5)), rand(5, 6))
        t = hosvd(x, tol=1e-10)
        assert t.ranks == (2, 2, 2)

    def test_truncation_error_bound(self):
        # squared reconstruction error <= sum of squared discarded singular values
        x = rand((6, 7, 5), 6)
        for ranks in [(2, 3, 2), (4, 4, 4), (1, 1, 1)]:
            t = hosvd(x, ranks=ranks)
            err_sq = np.linalg.norm(t.to_dense() - x) ** 2
            discarded = 0.0
            for i in range(3):
                s = np.linalg.svd(unfold(x, i), compute_uv=False)
                discarded += np.sum(s[ranks[i]:] ** 2)
            assert err_sq <= discarded * (1.0 + 1e-12) + 1e-14

    def test_orthonormality_validated(self):
        with pytest.raises(ValueError):
            TuckerTensor(core=rand((2, 2), 1), factors=(rand((4, 2), 2), rand((4, 2), 3)))

    def test_requires_exactly_one_mode(self):
        x = rand((3, 3), 1)
        with pytest.raises(ValueError):
            hosvd(x)
        with pytest.raises(ValueError):
            hosvd(x, ranks=(2, 2), tol=1e-8)
        y = rand((3, 4, 5), 2)
        for ranks in (-1, 0, (2, 2), (2, 0, 2)):
            with pytest.raises(ValueError, match=r"^ranks must be 3 positive integers, got "):
                hosvd(y, ranks=ranks)

    @pytest.mark.parametrize("tol", [np.nan, np.inf, -1.0])
    def test_rejects_a_bad_tolerance(self, tol):
        with pytest.raises(ValueError, match="^tol must be finite and nonnegative"):
            hosvd(rand((3, 4, 3), 1), tol=tol)

    def test_to_dense_memory_cap(self):
        t = TuckerTensor(rand((2, 2, 2), 1), tuple(random_orthonormal(n, 2, 2 + i) for i, n in enumerate((3, 4, 5))))
        with pytest.raises(MemoryCapError, match="Tucker densification needs 60 entries"):
            t.to_dense(memory_cap=59)
        np.testing.assert_allclose(t.to_dense(memory_cap=60), multi_mode_product(t.core, t.factors), rtol=1e-15)


class TestTTSvd:
    def test_separable_tensor_is_rank_one(self):
        vs = [rand(4, i) for i in range(4)]
        x = vs[0]
        for v in vs[1:]:
            x = np.multiply.outer(x, v)
        t = tt_svd(x, tol=1e-12)
        assert t.ranks == (1, 1, 1)
        np.testing.assert_allclose(t.to_dense(), x, atol=1e-12 * np.linalg.norm(x))

    def test_exact_roundtrip_small(self):
        x = rand((2, 2, 2), 3)
        t = tt_svd(x, tol=0.0)
        assert np.linalg.norm(t.to_dense() - x) <= 1e-13 * np.linalg.norm(x)

    def test_inverse_linear_grid_tensor_ranks(self):
        # samples of 1/(1 + x1 + ... + x4) on a 16-point grid compress hard;
        # measured ranks recorded at (6, 6, 6) for this tolerance
        n, d = 16, 4
        pts = np.arange(1, n + 1) / (n - 1)
        s = np.zeros([n] * d)
        for i in range(d):
            shape = [1] * d
            shape[i] = n
            s = s + pts.reshape(shape)
        x = 1.0 / (1.0 + s)
        t = tt_svd(x, tol=1e-8)
        assert all(r <= 10 for r in t.ranks)
        assert np.linalg.norm(t.to_dense() - x) <= 1e-8 * np.sqrt(d - 1) * np.linalg.norm(x)

    def test_tolerance_controls_error(self):
        x = rand((5, 6, 5, 4), 9)
        for tol in (1e-2, 1e-6):
            t = tt_svd(x, tol=tol)
            assert np.linalg.norm(t.to_dense() - x) <= tol * np.sqrt(3) * np.linalg.norm(x)

    def test_max_rank_cap(self):
        x = rand((6, 6, 6), 10)
        t = tt_svd(x, tol=0.0, max_rank=2)
        assert all(r <= 2 for r in t.ranks)
        for cap in (0, -2):
            with pytest.raises(ValueError, match=rf"^max_rank must be positive, got {cap}$"):
                tt_svd(x, max_rank=cap)

    def test_carriage_shape_validation(self):
        with pytest.raises(ValueError):
            TTTensor((rand((3, 2), 1), rand((3, 4, 2), 2), rand((2, 3), 3)))


class TestNormed:
    """``_normed`` reads the Frobenius norm in every format; only a train comes back changed, left-orthogonal."""

    def formats(self):
        x = rand((4, 5, 6), 20)
        cp = CPTensor(tuple(rand((n, 3), 21 + i) for i, n in enumerate((4, 5, 6))))
        tucker = hosvd(x, ranks=(2, 3, 2))
        # carriage 0 scaled, so that the train is not left-orthogonal
        t = rand_tt((4, 5, 6, 3), (2, 3, 2), 24)
        train = TTTensor((1.37 * t.carriages[0], *t.carriages[1:]))
        return [x, cp, tucker, train]

    def test_matches_the_dense_norm(self):
        for x in self.formats():
            dense = x if isinstance(x, np.ndarray) else x.to_dense()
            _, norm = tensors._normed(x)
            assert abs(norm - np.linalg.norm(dense)) <= 1e-13 * np.linalg.norm(dense)

    def test_only_a_train_changes(self):
        x, cp, tucker, train = self.formats()
        for y in (x, cp, tucker):
            assert tensors._normed(y)[0] is y
        swept, norm = tensors._normed(train)
        assert tt_norm(train) == norm
        assert norm == np.linalg.norm(swept.carriages[-1])
        np.testing.assert_allclose(swept.to_dense(), train.to_dense(), rtol=0, atol=1e-13 * norm)
        for core in _as_cores(swept)[:-1]:
            assert orthonormality_defect(core.reshape(-1, core.shape[2])) <= 1e-14


class TestTTArithmetic:
    def test_mode_product_identity(self):
        t = tt_svd(rand((3, 4, 5), 1), tol=0.0)
        s = tt_mode_product(t, 1, np.eye(4))
        assert s.ranks == t.ranks
        np.testing.assert_allclose(s.to_dense(), t.to_dense(), atol=1e-13)

    def test_mode_product_matches_dense(self):
        # the 2-way train has only boundary carriages
        for shape in [(3, 4, 5), (3, 5)]:
            x = rand(shape, 2)
            t = tt_svd(x, tol=0.0)
            for mode, m in enumerate(rand((k, n), 3 + i) for i, (k, n) in enumerate(zip((2, 6, 2), shape))):
                y = tt_mode_product(t, mode, m)
                assert y.ranks == t.ranks  # ranks are structurally unchanged
                np.testing.assert_allclose(y.to_dense(), mode_product(x, mode, m), atol=1e-12)

    def test_norm(self):
        x = rand((4, 5, 6), 9)
        assert tt_norm(tt_svd(x, tol=0.0)) == pytest.approx(np.linalg.norm(x), rel=1e-13)

    def test_to_dense_memory_cap(self):
        x = rand((4, 4, 4), 10)
        t = tt_svd(x, tol=0.0)
        with pytest.raises(MemoryCapError):
            t.to_dense(memory_cap=10)
        np.testing.assert_allclose(t.to_dense(memory_cap=64), x, atol=1e-13)
        # an 8-entry result through a 2*2 x 100 partial product
        t = TTTensor((rand((2, 100), 1), rand((100, 2, 100), 2), rand((100, 2), 3)))
        with pytest.raises(MemoryCapError, match=r"^train densification needs 400 entries, cap is 399$"):
            t.to_dense(memory_cap=399)
        np.testing.assert_array_equal(t.to_dense(memory_cap=400), t.to_dense())

    @pytest.mark.parametrize("tol", [np.nan, np.inf, -1.0])
    def test_round_and_svd_reject_a_bad_tolerance(self, tol):
        x = rand((3, 4, 3), 11)
        with pytest.raises(ValueError, match="^tol must be finite and nonnegative"):
            tt_svd(x, tol=tol)
        with pytest.raises(ValueError, match="^tol must be finite and nonnegative"):
            tt_round(tt_svd(x, tol=0.0), tol)


class TestTTRound:
    def test_doubling_then_rounding_restores_ranks(self):
        x = rand((4, 5, 4), 1)
        t = tt_svd(x, tol=0.0)
        doubled = tt_add(t, t)
        assert doubled.ranks == tuple(2 * r for r in t.ranks)
        rounded = tt_round(doubled, 1e-14)
        assert rounded.ranks == t.ranks
        np.testing.assert_allclose(rounded.to_dense(), 2.0 * x, atol=1e-12 * np.linalg.norm(x))

    def test_zero_tolerance_is_lossless(self):
        x = rand((3, 4, 3, 2), 2)
        t = tt_svd(x, tol=0.0)
        r = tt_round(t, 0.0)
        assert np.linalg.norm(r.to_dense() - x) <= 1e-13 * np.linalg.norm(x)

    def test_padded_zero_slices_are_removed(self):
        t = tt_svd(rand((3, 4, 3), 3), tol=0.0)
        cars = list(t.carriages)
        r0 = cars[0].shape[1]
        cars[0] = np.hstack([cars[0], np.zeros((cars[0].shape[0], 2))])
        pad_mid = np.zeros((r0 + 2, cars[1].shape[1], cars[1].shape[2]))
        pad_mid[:r0] = cars[1]
        cars[1] = pad_mid
        padded = TTTensor(tuple(cars))
        assert padded.ranks[0] == r0 + 2
        rounded = tt_round(padded, 1e-14)
        assert rounded.ranks == t.ranks
        np.testing.assert_allclose(rounded.to_dense(), t.to_dense(), atol=1e-12)

    def test_ranks_never_increase(self):
        x = rand((4, 4, 4, 4), 4)
        t = tt_svd(x, tol=1e-1)
        r = tt_round(t, 0.0)
        assert all(a <= b for a, b in zip(r.ranks, t.ranks))

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_within_its_budget(self, data):
        x = draw_tt(data)
        tol = data.draw(BUDGETS)
        exact = x.to_dense()
        r = tt_round(x, tol)
        assert np.linalg.norm(r.to_dense() - exact) <= (tol + 1e-13) * np.linalg.norm(exact)
        assert all(a <= b for a, b in zip(r.ranks, x.ranks))


def rand_tt(shape, ranks, seed=0):
    """A train with standard normal carriages of the given ranks."""
    rng = np.random.default_rng(seed)
    rs = (1, *ranks, 1)
    cores = [rng.standard_normal((rs[i], n, rs[i + 1])) for i, n in enumerate(shape)]
    return TTTensor((cores[0][0], *cores[1:-1], cores[-1][..., 0]))


# relative Frobenius budgets of the rounding property tests
BUDGETS = st.sampled_from([0.0, 1e-8, 1e-3, 1e-1])


def draw_tt(data, shape=None):
    """A drawn train with ranks 1..4 and standard normal carriages; unless ``shape`` is given, 2 to 5 modes of extent 1..6."""
    if shape is None:
        d = data.draw(st.integers(2, 5))
        shape = data.draw(st.lists(st.integers(1, 6), min_size=d, max_size=d))
    ranks = data.draw(st.lists(st.integers(1, 4), min_size=len(shape) - 1, max_size=len(shape) - 1))
    return rand_tt(shape, ranks, data.draw(st.integers(0, 2**16)))


def left_orthogonal(x):
    """``x`` made left-orthogonal by the QR sweep of ``_normed``, as a solve hands its right-hand side on."""
    return tensors._normed(x)[0]


def product_tol(rel, a, b):
    """The ``tol`` of ``_tt_hadamard_round`` whose budget ``tol*||b||`` is ``rel*||a * b||``."""
    return rel * np.linalg.norm(a.to_dense() * b.to_dense()) / np.linalg.norm(b.to_dense())


def orthonormality_defect(m):
    """``max|M^T M - I|`` for the columns of ``m``."""
    return np.max(np.abs(m.T @ m - np.eye(m.shape[1])), initial=0.0)


class TestTTAddRound:
    def check(self, a, t, tol):
        """Round ``a + t`` and check its accuracy and left-orthogonality."""
        s = tt_round(tt_add(a, t), tol)
        exact = a.to_dense() + t.to_dense()
        err = np.linalg.norm(s.to_dense() - exact)
        assert err <= (tol + 1e-13) * np.linalg.norm(exact)
        for core in _as_cores(s)[:-1]:
            assert orthonormality_defect(core.reshape(-1, core.shape[2])) <= 1e-13
        return s

    @pytest.mark.parametrize("rel_delta", [0.0, 1e-8, 1e-1])
    def test_generic_four_way(self, rel_delta):
        a = tt_round(rand_tt((4, 5, 3, 4), (2, 3, 2), 1), 0.0)
        t = rand_tt((4, 5, 3, 4), (2, 2, 2), 2)
        s = self.check(a, t, rel_delta)
        assert all(r <= ra + rt for r, ra, rt in zip(s.ranks, a.ranks, t.ranks))

    def test_full_ranks_at_the_boundary(self):
        a = tt_round(tt_svd(rand((3, 3, 3, 3), 3), tol=0.0), 0.0)
        t = tt_svd(rand((3, 3, 3, 3), 4), tol=0.0)
        assert a.ranks == t.ranks == (3, 9, 3)
        assert self.check(a, t, 0.0).ranks == (3, 9, 3)

    def test_multiple_of_the_accumulator_keeps_its_ranks(self):
        a = tt_round(rand_tt((4, 5, 3, 4), (2, 3, 2), 5), 0.0)
        # the same tensor times -0.3, in another gauge
        g = rand((2, 2), 6) + 3.0 * np.eye(2)
        first, second, *rest = a.carriages
        t = TTTensor((-0.3 * first @ g, np.tensordot(np.linalg.inv(g), second, axes=1), *rest))
        assert self.check(a, t, 0.0).ranks == a.ranks

    def test_tiny_term(self):
        a = tt_round(rand_tt((4, 5, 3, 4), (2, 3, 2), 7), 0.0)
        t = TTTensor((1e-14 * c if i == 0 else c for i, c in enumerate(rand_tt((4, 5, 3, 4), (2, 2, 2), 8).carriages)))
        self.check(a, t, 0.0)
        assert self.check(a, t, 1e-12).ranks == a.ranks

    def test_two_modes(self):
        a = tt_round(rand_tt((5, 6), (3,), 9), 0.0)
        t = rand_tt((5, 6), (2,), 10)
        assert self.check(a, t, 0.0).ranks == (5,)


class TestCPToTT:
    @pytest.mark.parametrize(
        "shape, n_terms",
        [((5, 7), 3), ((6, 4, 5), 9), ((3, 4, 5, 6), 40), ((4, 3, 5, 3, 4), 12)],
        ids=["d2", "d3", "d4", "d5"],
    )
    @pytest.mark.parametrize("rel_budget", [0.0, 1e-8, 1e-3])
    def test_within_the_rounding_bound_of_the_cp_tensor(self, shape, n_terms, rel_budget):
        # decaying exponentials, as in the filter of an exponential sum
        rng = np.random.default_rng(len(shape))
        exponents = np.geomspace(1e-2, 1e1, n_terms)
        factors = [np.exp(-np.outer(rng.uniform(0.5, 5.0, n), exponents)) for n in shape]
        weights = rng.uniform(0.1, 1.0, n_terms)
        factors[0] = factors[0] * weights
        dense = CPTensor(tuple(factors)).to_dense()
        budget = rel_budget * np.linalg.norm(dense)
        f = _cp_to_tt(factors, budget)
        assert np.linalg.norm(f.to_dense() - dense) <= budget + 1e-13 * np.linalg.norm(dense)
        assert max(f.ranks) <= n_terms

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_within_its_budget(self, data):
        d = data.draw(st.integers(2, 5))
        shape = data.draw(st.lists(st.integers(1, 6), min_size=d, max_size=d))
        n_terms = data.draw(st.integers(1, 12))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
        factors = [rng.standard_normal((n, n_terms)) for n in shape]
        dense = CPTensor(tuple(factors)).to_dense()
        budget = data.draw(BUDGETS) * np.linalg.norm(dense)
        f = _cp_to_tt(factors, budget)
        assert np.linalg.norm(f.to_dense() - dense) <= budget + 1e-13 * np.linalg.norm(dense)


class TestTTHadamardRound:
    def check(self, a, b, tol):
        """Round ``a * b`` within ``tol*||b||`` and check its accuracy and its rank bound."""
        p = _tt_hadamard_round(a, b, tol)
        exact = a.to_dense() * b.to_dense()
        err = np.linalg.norm(p.to_dense() - exact)
        assert err <= tol * np.linalg.norm(b.to_dense()) + 1e-13 * np.linalg.norm(exact)
        assert all(r <= ra * rb for r, ra, rb in zip(p.ranks, a.ranks, b.ranks))
        return p

    def check_against_face_split(self, a, b, tol):
        """The kernel matches the rounding of the formed face-split carriages: equal ranks, within 1e-13 relative."""
        p, q = _tt_hadamard_round(a, b, tol), tt_hadamard_round_face_split(a, b, tol)
        assert p.ranks == q.ranks
        ref = q.to_dense()
        assert np.linalg.norm(p.to_dense() - ref) <= 1e-13 * np.linalg.norm(ref)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_matches_the_face_split_rounding(self, data):
        d = data.draw(st.integers(2, 5))
        shape = data.draw(st.lists(st.integers(1, 6), min_size=d, max_size=d))
        ranks_a, ranks_b = (data.draw(st.lists(st.integers(1, 4), min_size=d - 1, max_size=d - 1)) for _ in "ab")
        seed = data.draw(st.integers(0, 2**16))
        a, b = rand_tt(shape, ranks_a, seed), rand_tt(shape, ranks_b, seed + 1)
        # left-orthogonal either as a rounded train is (the solve's filter) or as a swept one (its right-hand side)
        a = tt_round(a, 0.0) if data.draw(st.booleans()) else left_orthogonal(a)
        b = left_orthogonal(b)
        self.check_against_face_split(a, b, product_tol(data.draw(BUDGETS), a, b))

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_within_its_budget(self, data):
        a = draw_tt(data)
        b = draw_tt(data, a.shape)
        # each input left-orthogonal either as a rounded train or as a swept one; its norm is its last core's
        a, b = (tt_round(x, 0.0) if data.draw(st.booleans()) else left_orthogonal(x) for x in (a, b))
        self.check(a, b, data.draw(BUDGETS))

    @pytest.mark.parametrize("rel_budget", [0.0, 1e-8, 1e-1])
    def test_generic_four_way(self, rel_budget):
        a = left_orthogonal(rand_tt((4, 5, 3, 4), (2, 3, 2), 1))
        b = left_orthogonal(rand_tt((4, 5, 3, 4), (3, 2, 2), 2))
        self.check(a, b, product_tol(rel_budget, a, b))

    def test_full_ranks_at_the_boundary(self):
        # the rank products (9, 81, 9) exceed what every unfolding can hold;
        # tt_svd's carriages but the last are SVD U factors, so left-orthogonal
        a = tt_svd(rand((3, 3, 3, 3), 3), tol=0.0)
        b = tt_svd(rand((3, 3, 3, 3), 4), tol=0.0)
        assert a.ranks == b.ranks == (3, 9, 3)
        assert self.check(a, b, 0.0).ranks == (3, 9, 3)

    def test_rank_one_factor_keeps_ranks(self):
        a = left_orthogonal(rand_tt((4, 5, 3, 4), (2, 3, 2), 5))
        ones = left_orthogonal(TTTensor((np.ones((4, 1)), np.ones((1, 5, 1)), np.ones((1, 3, 1)), np.ones((1, 4)))))
        assert self.check(a, ones, 0.0).ranks == a.ranks

    def test_zero_train(self):
        a = left_orthogonal(rand_tt((4, 5, 3), (2, 3), 7))
        zero = left_orthogonal(TTTensor((np.zeros((4, 2)), *rand_tt((4, 5, 3), (2, 2), 8).carriages[1:])))
        p = self.check(a, zero, 0.0)
        assert p.ranks == (1, 1)
        assert not np.any(p.to_dense())
        self.check_against_face_split(a, zero, 0.0)

    def test_two_modes(self):
        a = left_orthogonal(rand_tt((5, 6), (3,), 9))
        b = left_orthogonal(rand_tt((5, 6), (2,), 10))
        assert self.check(a, b, 0.0).ranks == (5,)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            _tt_hadamard_round(rand_tt((4, 5), (2,), 1), rand_tt((5, 4), (2,), 2), 0.0)

    @pytest.mark.parametrize("rel_budget", [1e-8, 1e-3, 1e-1])
    def test_badly_scaled_inputs(self, rel_budget):
        # carriages scaled by 1e+-3, so that the left parts are far from
        # contractive before the QR sweep that makes the inputs left-orthogonal
        def scaled(x, signs):
            return TTTensor(tuple(10.0 ** (3 * sign) * c for sign, c in zip(signs, x.carriages)))

        a = left_orthogonal(scaled(rand_tt((4, 5, 3, 4), (2, 3, 2), 11), (1, -1, 1, -1)))
        b = left_orthogonal(scaled(rand_tt((4, 5, 3, 4), (3, 2, 2), 12), (-1, 1, 1, -1)))
        tol = product_tol(rel_budget, a, b)
        self.check(a, b, tol)
        self.check_against_face_split(a, b, tol)

    @pytest.mark.parametrize("rel_budget", [1e-8, 1e-3])
    def test_right_part_cut_fires(self, rel_budget, monkeypatch):
        # a compressed filter of decaying exponentials, as the train solve
        # builds it, times a random train swept left-orthogonal
        lam, t = np.linspace(1.0, 4.0, 6), np.geomspace(0.05, 20.0, 10)
        factors = [np.exp(-np.outer(lam, t)) for _ in range(6)]
        factors[0] = factors[0] * np.sqrt(t)
        a = _cp_to_tt(factors, 0.0)
        b = left_orthogonal(rand_tt((6,) * 6, (2, 3, 3, 3, 2), 11))
        tol = product_tol(rel_budget, a, b)
        # the kernel's budget, ||b|| read off b's last carriage, split over the 5 right parts
        cut = tensors._CUT_SHARE * (tol * float(np.linalg.norm(b.carriages[-1]))) / 5
        kept = []

        def spy(s, threshold):
            r = truncation_rank(s, threshold)
            if threshold == cut:
                kept.append(r)
            return r

        truncation_rank = tensors._truncation_rank
        monkeypatch.setattr(tensors, "_truncation_rank", spy)
        self.check(a, b, tol)
        # one cut per right part T_k, k = 5 .. 1, whose width is at most the
        # product's left rank ra*rb at carriage k; some cut must narrow it
        widths = [ra * rb for ra, rb in zip(a.ranks, b.ranks)][::-1]
        assert len(kept) == 5
        assert all(r <= w for r, w in zip(kept, widths))
        assert any(r < w for r, w in zip(kept, widths))


class TestRankSubadditivity:
    def test_multilinear_ranks_of_sum(self):
        def low_rank(seed, ranks):
            core = rand(ranks, seed)
            us = [random_orthonormal(6, r, seed + 10 + i) for i, r in enumerate(ranks)]
            return multi_mode_product(core, us)

        x, z = low_rank(1, (2, 2, 2)), low_rank(2, (1, 2, 1))
        rx, rz = numerical_multilinear_ranks(x), numerical_multilinear_ranks(z)
        rs = numerical_multilinear_ranks(x + z)
        assert all(r <= a + b for r, a, b in zip(rs, rx, rz))


class TestCP:
    @pytest.mark.parametrize("d, rank", [(1, 6), (2, 6), (3, 6), (4, 6), (5, 6), (3, 0)], ids=["1", "2", "3", "4", "5", "3-rank0"])
    def test_to_dense_matches_einsum(self, d, rank):
        shape = (4, 3, 5, 2, 3)[:d]
        factors = tuple(rand((n, rank), 30 + i) for i, n in enumerate(shape))
        letters = "abcde"[:d]
        spec = ",".join(f"{a}z" for a in letters) + "->" + letters
        np.testing.assert_allclose(CPTensor(factors).to_dense(), np.einsum(spec, *factors), rtol=1e-13, atol=1e-13)

    def test_to_dense_memory_cap(self):
        # a 4*4-row operand per term: under a cap of 64, the result's size, chunks of 4 terms
        t = CPTensor(tuple(rand((4, 10), i) for i in range(3)))
        with pytest.raises(MemoryCapError, match=r"^CP densification needs 64 entries, cap is 63$"):
            t.to_dense(memory_cap=63)
        np.testing.assert_allclose(t.to_dense(memory_cap=64), t.to_dense(), rtol=1e-14, atol=1e-14)

    def test_als_recovers_rank_one(self):
        x = CPTensor.from_rank1([rand(5, 1), rand(6, 2), rand(4, 3)]).to_dense()
        fit = cp_als(x, rank=1, rng=0)
        assert np.linalg.norm(fit.to_dense() - x) <= 1e-8 * np.linalg.norm(x)

    def test_als_accepts_maximal_rank(self):
        x = rand((3, 3, 2), 6)
        fit = cp_als(x, rank=6, rng=1)  # prod(n)/max(n) upper bound
        assert fit.rank == 6
        assert np.linalg.norm(fit.to_dense() - x) <= np.linalg.norm(x)

    def test_als_warm_start_never_degrades(self, monkeypatch):
        monkeypatch.setattr(tensors, "_ALS_RESTARTS", 1)  # the warm-started run alone
        rng = np.random.default_rng(12)
        x = CPTensor(tuple(rng.standard_normal((6, 3)) for _ in range(3))).to_dense()
        err = {}
        fit_prev = None
        for k in (2, 3):
            if fit_prev is None:
                fit = cp_als(x, rank=k, rng=2)
            else:
                padded = CPTensor(
                    tuple(np.hstack([f, rng.standard_normal((6, 1))]) for f in fit_prev.factors)
                )
                fit = cp_als(x, rank=k, rng=3, init=padded)
            err[k] = np.linalg.norm(fit.to_dense() - x)
            fit_prev = fit
        assert err[3] <= err[2] + 1e-12

    def test_als_validates_rank(self):
        with pytest.raises(ValueError):
            cp_als(rand((3, 3), 1), rank=0)


class TestTermSum:
    """``_term_sum`` against the sum over the terms of ``multi_mode_product`` of the core with each term's blocks."""

    @staticmethod
    def blocks(extents, n_terms, cols, seed):
        return [rand((n, n_terms, r), seed + i) for i, (n, r) in enumerate(zip(extents, cols))]

    @pytest.mark.parametrize(
        "extents, cols, per_chunk",
        [
            ((5,), (2,), 3),
            ((3, 5), (2, 3), 2),
            ((4, 3, 5), (2, 1, 3), 2),
            ((4, 3, 5), (1, 1, 1), 6),
            ((2, 3, 4, 5), (1, 2, 2, 1), 3),
            ((5, 6, 2, 3), (1, 1, 1, 1), 1),
        ],
        ids=["d1", "d2", "d3", "d3-rank-one", "d4", "d4-lead-taller-rank-one"],
    )
    def test_matches_a_sum_of_mode_products(self, monkeypatch, extents, cols, per_chunk):
        # 6 terms, per_chunk of them to a chunk, so that no operand has more than 6 * prod(n[h:]) entries
        blocks = self.blocks(extents, 6, cols, 40)
        core = rand(cols, 39)
        calls = []
        kron = tensors._term_kron
        monkeypatch.setattr(tensors, "_term_kron", lambda bs, n: calls.append(n) or kron(bs, n))
        x = _term_sum(core, blocks, tensors.DEFAULT_MEMORY_CAP, "term sum")
        ref = sum(multi_mode_product(core, [b[:, j, :] for b in blocks]) for j in range(6))
        assert x.shape == extents
        np.testing.assert_allclose(x, ref, rtol=1e-13, atol=1e-13)
        assert calls == [per_chunk] * (2 * 6 // per_chunk)  # a leading and a trailing product per chunk

    def test_an_operand_above_the_cap_raises_before_any_operand_is_formed(self, monkeypatch):
        # 10 terms of 3 x 3 blocks on 2 x 2 extents: one term's operands have 6 entries,
        # above the cap of 5; under a cap of 17 a chunk takes 2 terms, 12 entries
        blocks, core = self.blocks((2, 2), 10, (3, 3), 41), rand((3, 3), 42)
        kron = tensors._term_kron
        monkeypatch.setattr(tensors, "_term_kron", lambda *args: pytest.fail("an operand was formed"))
        with pytest.raises(MemoryCapError, match=r"^term sum needs 6 entries, cap is 5$"):
            _term_sum(core, blocks, 5, "term sum")
        calls = []
        monkeypatch.setattr(tensors, "_term_kron", lambda bs, n: calls.append(n) or kron(bs, n))
        ref = sum(multi_mode_product(core, [b[:, j, :] for b in blocks]) for j in range(10))
        np.testing.assert_allclose(_term_sum(core, blocks, 17, "term sum"), ref, rtol=1e-13, atol=1e-13)
        assert calls == [2] * 10

    def test_one_term_above_the_cap_takes_the_terms_by_mode_products(self, monkeypatch):
        # 4 terms on (3, 6, 6) extents from a (2, 3, 3) core: one term's trailing operand has
        # 36 * 9 = 324 entries, its mode products at most 108, the result's
        blocks, core = self.blocks((3, 6, 6), 4, (2, 3, 3), 43), rand((2, 3, 3), 44)
        monkeypatch.setattr(tensors, "_term_kron", lambda *args: pytest.fail("an operand was formed"))
        with pytest.raises(MemoryCapError, match=r"^term sum needs 108 entries, cap is 107$"):
            _term_sum(core, blocks, 107, "term sum")
        ref = sum(multi_mode_product(core, [b[:, j, :] for b in blocks]) for j in range(4))
        np.testing.assert_allclose(_term_sum(core, blocks, 108, "term sum"), ref, rtol=1e-13, atol=1e-13)


def with_nan(shape):
    x = rand(shape, 7)
    x[(1,) * len(shape)] = np.nan
    return x


class TestNonFiniteInput:
    """A NaN in the target fails early with one line naming it, not inside LAPACK or with a ``None`` fit."""

    def test_tt_round(self):
        x = TTTensor((rand((4, 2), 1), with_nan((2, 5, 3)), rand((3, 4), 2)))
        with pytest.raises(ValueError, match=r"^x has non-finite entries$"):
            tt_round(x, 1e-8)

    def test_tt_svd(self):
        with pytest.raises(ValueError, match=r"^x has non-finite entries$"):
            tt_svd(with_nan((4, 5, 3)), tol=1e-8)

    def test_hosvd(self):
        with pytest.raises(ValueError, match=r"^x has non-finite entries$"):
            hosvd(with_nan((4, 5, 3)), ranks=2)

    def test_cp_als(self):
        with pytest.raises(ValueError, match=r"^x has non-finite entries$"):
            cp_als(with_nan((4, 5, 3)), rank=2, rng=0)


class TestDegenerateModes:
    def test_singleton_modes_everywhere(self):
        x = rand((3, 1, 4), 5)
        assert unfold(x, 1).shape == (1, 12)
        t = hosvd(x, tol=1e-12)
        assert t.ranks[1] == 1
        np.testing.assert_allclose(t.to_dense(), x, atol=1e-12)
        tt = tt_svd(x, tol=0.0)
        np.testing.assert_allclose(tt.to_dense(), x, atol=1e-12)


class TestRoundTrips:
    def test_tucker_roundtrip_at_exact_ranks(self):
        core = rand((2, 2, 3), 1)
        us = [random_orthonormal(5, 2, 2), random_orthonormal(6, 2, 3), random_orthonormal(5, 3, 4)]
        x = multi_mode_product(core, us)
        back = hosvd(x, ranks=(2, 2, 3)).to_dense()
        assert np.linalg.norm(back - x) <= 1e-12 * np.linalg.norm(x)

    def test_tt_roundtrip_at_exact_ranks(self):
        t = tt_svd(rand((4, 5, 4), 5), tol=1e-1)
        x = t.to_dense()
        back = tt_svd(x, tol=0.0).to_dense()
        assert np.linalg.norm(back - x) <= 1e-12 * np.linalg.norm(x)

    @pytest.mark.parametrize("restarts", [1, 5])
    def test_cp_roundtrip_at_exact_rank(self, restarts, monkeypatch):
        # the warm start is exact; no random restart may displace it
        monkeypatch.setattr(tensors, "_ALS_RESTARTS", restarts)
        original = CPTensor(tuple(rand((5, 2), i + 20) for i in range(3)))
        x = original.to_dense()
        back = cp_als(x, rank=2, rng=4, init=original).to_dense()
        assert np.linalg.norm(back - x) <= 1e-12 * np.linalg.norm(x)
