"""Kronecker-sum solver: format paths, oracle and bounds."""

import copy
import dataclasses
import pickle
import sys
import time
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from fracsum.expsum import (
    ExpSum,
    best_expsum,
    build_expsum,
    params_for_terms,
    select_params,
    total_error_bound,
)
from fracsum import solver, tensors
from fracsum.problems import Grid1D, RhsSpec, laplacian_1d, sample_rhs
from fracsum.solver import (
    KroneckerSum,
    MemoryCapError,
    SolveReport,
    _eigenvalue_sums,
    _sum_filter,
    oracle_apply,
    solve_cp,
    solve_dense,
    solve_tt,
    solve_tucker,
)
from fracsum.tensors import CPTensor, TTTensor, TuckerTensor, _as_cores, hosvd, tt_norm, tt_svd

from _oracles import exp_kron_apply, expm_taylor, kron_sum_matrix, random_spd, vec


def make_es(alpha=0.5, eps=1e-6):
    return build_expsum(select_params(alpha, eps))


class TestKroneckerSum:
    def test_rejects_nonsymmetric(self):
        with pytest.raises(ValueError):
            KroneckerSum([np.array([[1.0, 2.0], [0.0, 1.0]])])

    def test_rejects_an_empty_factor_in_one_line(self):
        with pytest.raises(ValueError, match=r"^factor 1 is empty$"):
            KroneckerSum([np.eye(2), np.zeros((0, 0))])

    @pytest.mark.parametrize("cap", [0, -5, 0.5, float("nan")])
    def test_rejects_a_memory_cap_below_one_in_one_line(self, cap):
        with pytest.raises(ValueError, match=rf"^memory_cap must be at least 1, got {cap}$"):
            KroneckerSum([np.eye(2)], memory_cap=cap)
        assert KroneckerSum([np.eye(2)], memory_cap=1).memory_cap == 1

    def test_rejects_indefinite_on_first_spectral_use(self):
        ks = KroneckerSum([np.diag([1.0, -0.5])])
        with pytest.raises(ValueError):
            ks.spectra

    def test_lambda_min_is_sum_of_factor_minima(self):
        rng = np.random.default_rng(0)
        factors = [random_spd(rng, n) for n in (4, 5, 3)]
        ks = KroneckerSum(factors)
        expected = sum(np.linalg.eigvalsh(a)[0] for a in factors)
        assert ks.lambda_min == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_apply_matches_materialized_matrix(self, d):
        rng = np.random.default_rng(1)
        factors = [random_spd(rng, n) for n in (2, 3, 4, 3)[:d]]
        ks = KroneckerSum(factors)
        c = rng.standard_normal(ks.shape)
        np.testing.assert_allclose(vec(ks.apply(c)), kron_sum_matrix(factors) @ vec(c), atol=1e-12)

    def test_a_solve_leaves_the_factors_their_spectra_and_the_filter_store(self):
        rng = np.random.default_rng(3)
        ks = KroneckerSum([random_spd(rng, n) for n in (4, 5, 3)])
        solve_tt(ks, tt_svd(rng.standard_normal(ks.shape), tol=0.0), make_es(), round_tol=1e-10)
        assert set(vars(ks)) == {"_factors", "_memory_cap", "spectra", "_filters"}
        # the store holds the train within the operator's cap, the default one here
        assert ks.memory_cap == tensors.DEFAULT_MEMORY_CAP
        assert 0 < ks._filters.held() <= ks.memory_cap
        assert not any(callable(getattr(f, "cache_info", None)) for f in vars(solver).values())

    @pytest.mark.parametrize("copy_of", [lambda ks: pickle.loads(pickle.dumps(ks)), copy.deepcopy], ids=["pickle", "deepcopy"])
    def test_a_copy_is_read_only_and_keeps_no_filters(self, copy_of):
        rng = np.random.default_rng(4)
        ks = KroneckerSum([random_spd(rng, n) for n in (4, 5, 3)])
        es = make_es()
        c = rng.standard_normal(ks.shape)
        want = solve_dense(ks, c, es)
        assert ks._filters.held() > 0
        dup = copy_of(ks)
        # held() counts every kept array, the filter's factors included
        assert dup._filters is not ks._filters and dup._filters.held() == 0 and not dup._filters._forms
        for a in (*dup.factors, *(a for pair in dup.spectra for a in pair)):
            with pytest.raises(ValueError):
                a[(0,) * a.ndim] = 1.0
        assert _same_solve(solve_dense(dup, c, es), want)

    def test_factors_and_spectra_are_read_only(self):
        rng = np.random.default_rng(2)
        a = random_spd(rng, 3)
        ks = KroneckerSum([a, a])
        with pytest.raises(ValueError):
            ks.factors[0][0, 0] = 1.0
        with pytest.raises(ValueError):
            ks.spectra[0][1][0, 0] = 1.0
        with pytest.raises(ValueError):
            ks.spectra[1][0][0] = 1.0
        a[0, 0] += 1.0  # the operator holds a copy
        assert not np.array_equal(ks.factors[0], a)


class TestSolveDense:
    def test_one_dimensional_matrix_function(self):
        rng = np.random.default_rng(3)
        a = random_spd(rng, 6)
        ks = KroneckerSum([a])
        c = rng.standard_normal(6).reshape(6)
        es = make_es(0.5, 1e-10)
        x, report = solve_dense(ks, c, es)
        ref = oracle_apply(ks, c, 0.5)
        assert np.linalg.norm(x - ref) <= report.error_bound
        assert np.linalg.norm(x - ref) <= 1e-9 * np.linalg.norm(ref)

    def test_eigenvector_right_hand_side(self):
        rng = np.random.default_rng(4)
        factors = [random_spd(rng, 4) for _ in range(3)]
        ks = KroneckerSum(factors)
        lams, qs = zip(*ks.spectra)
        c = np.multiply.outer(np.multiply.outer(qs[0][:, 1], qs[1][:, 0]), qs[2][:, 2])
        lam = lams[0][1] + lams[1][0] + lams[2][2]
        es = make_es(0.5, 1e-10)
        x, report = solve_dense(ks, c, es)
        assert np.linalg.norm(x - lam**-0.5 * c) <= report.error_bound

    def test_certified_bound_and_shape_check(self):
        rng = np.random.default_rng(5)
        ks = KroneckerSum([laplacian_1d(16)] * 3)
        grids = [Grid1D(16)] * 3
        c = sample_rhs(RhsSpec(kind="inv_linear", d=3), grids)
        es = make_es(0.4, 1e-8)
        x, report = solve_dense(ks, c, es)
        ref = oracle_apply(ks, c, 0.4)
        assert np.linalg.norm(x - ref) <= report.error_bound
        with pytest.raises(ValueError):
            solve_dense(ks, c[:8], es)

    def test_scaling_relation(self):
        rng = np.random.default_rng(6)
        factors = [random_spd(rng, 5) for _ in range(2)]
        c = rng.standard_normal((5, 5))
        es = make_es(0.3, 1e-8)
        s = 7.5
        x1, _ = solve_dense(KroneckerSum(factors), c, es)
        x2, _ = solve_dense(KroneckerSum([s * a for a in factors]), c, es)
        np.testing.assert_allclose(x2, s**-0.3 * x1, rtol=1e-11)

    def test_memory_cap(self):
        with pytest.raises(MemoryCapError, match=r"^dense solve needs 512 entries, cap is 511$"):
            solve_dense(KroneckerSum([np.eye(8)] * 3, memory_cap=511), np.zeros((8, 8, 8)), make_es())
        x, _ = solve_dense(KroneckerSum([np.eye(8)] * 3, memory_cap=512), np.zeros((8, 8, 8)), make_es())
        assert x.shape == (8, 8, 8)

    def test_no_operand_of_the_filter_exceeds_the_cap(self, monkeypatch):
        # 20 terms of a 64-entry trailing operand: 1280 entries in one chunk, so the cap splits them 16 + 4
        ks = KroneckerSum([laplacian_1d(8)] * 3, memory_cap=1024)
        c = np.random.default_rng(8).standard_normal(ks.shape)
        es = build_expsum(params_for_terms(0.5, 20))
        want, _ = solve_dense(KroneckerSum(ks.factors), c, es)
        sizes, kron = [], tensors._term_kron

        def recorded(blocks, n_terms):
            out = kron(blocks, n_terms)
            sizes.append(out.size)
            return out

        monkeypatch.setattr(tensors, "_term_kron", recorded)
        x, _ = solve_dense(ks, c, es)
        assert sizes == [16 * 8, 16 * 64, 4 * 8, 4 * 64]
        np.testing.assert_allclose(x, want, rtol=1e-13, atol=1e-13 * np.abs(want).max())


class TestSumFilter:
    @pytest.mark.parametrize("sizes", [(5,), (3, 4), (3, 4, 5), (2, 3, 4, 3)], ids=["d1", "d2", "d3", "d4"])
    def test_densified_filter_is_the_scaled_sum_of_exponentials(self, sizes):
        rng = np.random.default_rng(22)
        ks = KroneckerSum([random_spd(rng, n) for n in sizes])
        es = build_expsum(params_for_terms(0.4, 30))
        lam_min = ks.lambda_min
        ref = lam_min**-0.4 * sum(
            w * np.exp(-t * _eigenvalue_sums(ks) / lam_min) for w, t in zip(es.weights, es.exponents)
        )
        f = _sum_filter(ks, es)
        assert f.rank == es.n_terms
        assert np.linalg.norm(f.to_dense() - ref) <= 1e-14 * np.linalg.norm(ref)


class TestDroppedFilterEntries:
    """At d = 4, n = 16, N = 200, 1.7% of the filter's exponential factor entries are below ``sqrt(tiny)``."""

    @pytest.fixture(scope="class")
    def setup(self):
        ks = KroneckerSum([laplacian_1d(16)] * 4)
        es = build_expsum(params_for_terms(0.5, 200))
        rhs = sample_rhs(RhsSpec(kind="random_rank1", d=4, seed=5), [Grid1D(16)] * 4)
        return ks, es, rhs

    def test_no_factor_entry_below_the_floor_is_kept(self, setup):
        ks, es, _ = setup
        f = _sum_filter(ks, es)
        # the mode-0 factor carries the scaled weights; take them out
        exps = [f.factors[0] / (ks.lambda_min**-0.5 * es.weights)] + list(f.factors[1:])
        floor = np.sqrt(np.finfo(float).tiny)
        assert not any(np.any((e > 0.0) & (e < floor)) for e in exps)
        dropped = sum(int(np.sum(e == 0.0)) for e in exps) / sum(e.size for e in exps)
        assert 0.01 < dropped < 0.03

    @pytest.mark.parametrize("fmt", ["dense", "cp", "tucker", "tt"])
    def test_solves_stay_within_the_bound(self, setup, fmt):
        ks, es, rhs = setup
        dense = rhs.to_dense()
        if fmt == "dense":
            x, report = solve_dense(ks, dense, es)
        elif fmt == "cp":
            x, report = solve_cp(ks, rhs, es)
        elif fmt == "tucker":
            x, report = solve_tucker(ks, hosvd(dense, tol=1e-14), es)
        else:
            x, report = solve_tt(ks, tt_svd(dense, tol=0.0), es)
        x = x if isinstance(x, np.ndarray) else x.to_dense()
        assert np.linalg.norm(x - oracle_apply(ks, dense, 0.5)) <= report.error_bound


class TestWallTime:
    @pytest.mark.parametrize("fmt", ["dense", "cp", "tucker", "tt"])
    def test_excludes_the_eigendecomposition(self, fmt, monkeypatch):
        eigh = np.linalg.eigh

        def slow_eigh(a):
            time.sleep(0.2)
            return eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", slow_eigh)
        rng = np.random.default_rng(23)
        ks = KroneckerSum([random_spd(rng, 4), random_spd(rng, 5)])
        c = rng.standard_normal((4, 5))
        es = make_es(0.5, 1e-3)
        solves = {
            "dense": lambda: solve_dense(ks, c, es),
            "cp": lambda: solve_cp(ks, CPTensor((c, np.eye(5))), es),
            "tucker": lambda: solve_tucker(ks, hosvd(c, ranks=c.shape), es),
            "tt": lambda: solve_tt(ks, tt_svd(c, tol=0.0), es),
        }
        _, report = solves[fmt]()
        assert report.wall_time < 0.2


class TestSolveCP:
    def test_rank_is_terms_times_rank(self):
        rng = np.random.default_rng(7)
        ks = KroneckerSum([random_spd(rng, 6) for _ in range(3)])
        es = make_es(0.5, 1e-3)
        c1 = CPTensor.from_rank1([rng.standard_normal(6) for _ in range(3)])
        x, report = solve_cp(ks, c1, es)
        assert x.rank == es.n_terms
        assert report.ranks == (es.n_terms,)
        c2 = CPTensor(tuple(rng.standard_normal((6, 2)) for _ in range(3)))
        assert solve_cp(ks, c2, es)[0].rank == 2 * es.n_terms

    def test_term_j_fills_columns_j_r_to_j_r_plus_r(self):
        # the reference never diagonalizes: per-mode Taylor exponentials act on the factors
        rng = np.random.default_rng(10)
        factors = [random_spd(rng, n) for n in (4, 5, 3)]
        ks = KroneckerSum(factors)
        es = build_expsum(params_for_terms(0.4, 12))
        r, lam_min = 2, ks.lambda_min
        c = CPTensor(tuple(rng.standard_normal((n, r)) for n in (4, 5, 3)))
        x, _ = solve_cp(ks, c, es)
        for j, (w, t) in enumerate(zip(es.weights, es.exponents)):
            term = CPTensor(tuple(f[:, j * r : (j + 1) * r] for f in x.factors)).to_dense()
            exps = tuple(expm_taylor(-t * a / lam_min) @ f for a, f in zip(factors, c.factors))
            ref = lam_min**-0.4 * w * CPTensor(exps).to_dense()
            assert np.linalg.norm(term - ref) <= 1e-12 * np.linalg.norm(ref), j

    def test_matches_dense_solve(self):
        rng = np.random.default_rng(8)
        ks = KroneckerSum([random_spd(rng, 16) for _ in range(3)])
        c = CPTensor(tuple(rng.standard_normal((16, 2)) for _ in range(3)))
        es = make_es(0.5, 1e-3)
        x_cp, _ = solve_cp(ks, c, es)
        x_dense, _ = solve_dense(ks, c.to_dense(), es)
        assert np.linalg.norm(x_cp.to_dense() - x_dense) <= 1e-12 * np.linalg.norm(x_dense)


class TestRawFormula:
    @pytest.mark.parametrize("sizes", [(3, 4), (3, 4, 5), (2, 3, 4, 3)], ids=["d2", "d3", "d4"])
    def test_every_path_matches_the_sum_of_matrix_exponentials(self, sizes):
        # The reference never diagonalizes: each term is a Taylor matrix
        # exponential of the assembled Kronecker sum, so a shared defect in
        # the eigenbasis kernel of the solvers and the oracle shows here.
        # Tucker runs at full ranks, so every stack is wide and the core is
        # the densified filter times the rotated core in d = 2, 3 and 4.
        rng = np.random.default_rng(21)
        factors = [random_spd(rng, n) for n in sizes]
        ks = KroneckerSum(factors)
        es = build_expsum(params_for_terms(0.4, 30))
        lam_min = ks.lambda_min
        k = kron_sum_matrix(factors)
        cp = CPTensor(tuple(rng.standard_normal((n, 2)) for n in sizes))
        c = cp.to_dense()
        ref = lam_min**-0.4 * sum(
            w * (expm_taylor(-t * k / lam_min) @ vec(c)) for w, t in zip(es.weights, es.exponents)
        )
        results = {
            "dense": solve_dense(ks, c, es)[0],
            "cp": solve_cp(ks, cp, es)[0].to_dense(),
            "tucker": solve_tucker(ks, hosvd(c, ranks=c.shape), es)[0].to_dense(),
            "tt": solve_tt(ks, tt_svd(c, tol=0.0), es, round_tol=0.0)[0].to_dense(),
        }
        for fmt, x in results.items():
            assert np.linalg.norm(vec(x) - ref) <= 1e-12 * np.linalg.norm(ref), fmt


class TestSolveTucker:
    def test_rank_bound_from_rank_one_core(self):
        rng = np.random.default_rng(9)
        ks = KroneckerSum([random_spd(rng, 8) for _ in range(3)])
        es = build_expsum(params_for_terms(0.5, 3))
        c = hosvd(CPTensor.from_rank1([rng.standard_normal(8) for _ in range(3)]).to_dense(), tol=1e-13)
        assert c.ranks == (1, 1, 1)
        x, report = solve_tucker(ks, c, es)
        assert all(r <= 3 for r in x.ranks)

    def test_matches_dense_solve(self):
        rng = np.random.default_rng(10)
        ks = KroneckerSum([random_spd(rng, 8) for _ in range(3)])
        c_dense = CPTensor(tuple(rng.standard_normal((8, 2)) for _ in range(3))).to_dense()
        c = hosvd(c_dense, tol=1e-14)
        es = make_es(0.6, 1e-4)
        x, _ = solve_tucker(ks, c, es)
        x_dense, _ = solve_dense(ks, c_dense, es)
        assert np.linalg.norm(x.to_dense() - x_dense) <= 1e-11 * np.linalg.norm(x_dense)

    @pytest.mark.parametrize(
        "shape, ranks",
        [((7,), (3,)), ((7,), (2,)), ((6, 10), (2, 3)), ((2, 3, 3), (1, 1, 1)), ((9, 12, 7, 5), (2, 3, 1, 2))],
        ids=["d1-wide", "d1-tall", "d2-wide-tall", "d3-wide-rank-one", "d4-mixed"],
    )
    def test_wide_and_tall_stacks_match_dense_solve(self, shape, ranks):
        # with 3 terms a stack has 3*r_i columns: modes with n_i <= 3*r_i keep
        # the identity basis, the others are orthogonalized by QR; d1-wide and
        # d3-wide-rank-one, all wide, multiply by the dense filter, the others
        # form the core by Khatri-Rao products in several chunks of terms
        rng = np.random.default_rng(23)
        ks = KroneckerSum([random_spd(rng, n) for n in shape])
        es = build_expsum(params_for_terms(0.5, 3))
        assert es.n_terms == 3
        factors = tuple(np.linalg.qr(rng.standard_normal((n, r)))[0] for n, r in zip(shape, ranks))
        c = TuckerTensor(core=rng.standard_normal(ranks), factors=factors)
        x, report = solve_tucker(ks, c, es)
        assert x.ranks == report.ranks == tuple(min(n, 3 * r) for n, r in zip(shape, ranks))
        x_dense, _ = solve_dense(ks, c.to_dense(), es)
        assert np.linalg.norm(x.to_dense() - x_dense) <= 1e-12 * np.linalg.norm(x_dense)

    def test_core_above_the_cap_raises_before_it_is_formed(self):
        # n = 520, ranks 3, N = 200: every stack is 520 x 600, so the ranks
        # are (520, 520, 520) and the core would have 1.41e8 > 2**27 entries
        rng = np.random.default_rng(24)
        ks = KroneckerSum([laplacian_1d(520)] * 3)
        ks.spectra
        es = build_expsum(params_for_terms(0.5, 200))
        factors = tuple(np.linalg.qr(rng.standard_normal((520, 3)))[0] for _ in range(3))
        c = TuckerTensor(core=rng.standard_normal((3, 3, 3)), factors=factors)
        tracemalloc.start()
        try:
            with pytest.raises(MemoryCapError, match="Tucker core needs 140608000 entries"):
                solve_tucker(ks, c, es)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20

    def test_no_operand_of_the_term_sum_exceeds_the_cap(self, monkeypatch):
        # a wide stack on mode 0 (4 <= 10 columns) and tall ones on modes 1 and 2 (16 > 10): the core
        # (4, 10, 10) is the term sum, whose 10 terms of a 100-entry trailing operand take one 1000-entry
        # chunk at the default cap; the operator's cap of 400, the core's entries, splits them 4 + 4 + 2
        shape = (4, 16, 16)
        rng = np.random.default_rng(33)
        factors = [random_spd(rng, n) for n in shape]
        es = build_expsum(params_for_terms(0.5, 10))
        c = TuckerTensor(core=np.full((1, 1, 1), 1.5), factors=tuple(np.linalg.qr(rng.standard_normal((n, 1)))[0] for n in shape))
        want, _ = solve_tucker(KroneckerSum(factors), c, es)
        sizes, kron = [], tensors._term_kron

        def recorded(blocks, n_terms):
            out = kron(blocks, n_terms)
            sizes.append(out.size)
            return out

        monkeypatch.setattr(tensors, "_term_kron", recorded)
        x, report = solve_tucker(KroneckerSum(factors, memory_cap=400), c, es)
        assert x.ranks == report.ranks == (4, 10, 10)
        assert sizes == [4 * 4, 4 * 100, 4 * 4, 4 * 100, 2 * 4, 2 * 100]
        for got, ref in zip((x.core, *x.factors), (want.core, *want.factors)):
            np.testing.assert_allclose(got, ref, rtol=1e-13, atol=1e-13 * np.abs(ref).max())


class TestSolveTT:
    def test_unrounded_rank_growth_bound(self):
        rng = np.random.default_rng(12)
        ks = KroneckerSum([random_spd(rng, 6) for _ in range(3)])
        es = build_expsum(params_for_terms(0.5, 4))
        c = tt_svd(CPTensor(tuple(rng.standard_normal((6, 2)) for _ in range(3))).to_dense(), tol=0.0)
        x, report = solve_tt(ks, c, es, round_tol=0.0)
        assert all(r <= 4 * rc for r, rc in zip(x.ranks, c.ranks))
        assert report.error_bound >= 0.0

    def test_matches_dense_solve_without_rounding(self):
        rng = np.random.default_rng(13)
        ks = KroneckerSum([random_spd(rng, 8) for _ in range(4)])
        c_dense = rng.standard_normal((8, 8, 8, 8))
        c = tt_svd(c_dense, tol=0.0)
        es = make_es(0.5, 1e-3)
        x, _ = solve_tt(ks, c, es, round_tol=0.0)
        x_dense, _ = solve_dense(ks, c_dense, es)
        assert np.linalg.norm(x.to_dense() - x_dense) <= 1e-11 * np.linalg.norm(x_dense)

    def test_exact_solve_keeps_unfolding_ranks_and_bound(self):
        # round_tol = 0 cuts only singular values below the noise floor, so a
        # full-rank c leaves every rank at that of the matching unfolding
        shape = (3, 4, 4, 3)
        rng = np.random.default_rng(17)
        ks = KroneckerSum([random_spd(rng, n) for n in shape])
        c_dense = rng.standard_normal(shape)
        x, report = solve_tt(ks, tt_svd(c_dense, tol=0.0), best_expsum(0.5, 200), round_tol=0.0)
        unfoldings = [min(np.prod(shape[:k]), np.prod(shape[k:])) for k in range(1, len(shape))]
        assert all(r <= b for r, b in zip(x.ranks, unfoldings))
        assert np.linalg.norm(x.to_dense() - oracle_apply(ks, c_dense, 0.5)) <= report.error_bound

    @pytest.mark.parametrize("round_tol", [0.0, 1e-12])
    def test_zero_right_hand_side(self, round_tol):
        ks = KroneckerSum([laplacian_1d(5)] * 3)
        x, report = solve_tt(ks, tt_svd(np.zeros((5, 5, 5)), tol=0.0), make_es(0.5, 1e-6), round_tol=round_tol)
        assert not np.any(x.to_dense())
        assert report.error_bound == 0.0
        assert x.ranks == (1, 1)

    def test_rounded_solve_stays_within_reported_bound(self):
        rng = np.random.default_rng(14)
        ks = KroneckerSum([laplacian_1d(8)] * 4)
        grids = [Grid1D(8)] * 4
        c_dense = sample_rhs(RhsSpec(kind="inv_linear", d=4), grids)
        c = tt_svd(c_dense, tol=1e-12)
        es = make_es(0.5, 1e-8)
        x, report = solve_tt(ks, c, es, round_tol=1e-10)
        ref = oracle_apply(ks, c_dense, 0.5)
        assert np.linalg.norm(x.to_dense() - ref) <= report.error_bound
        assert max(x.ranks) < es.n_terms

    def test_six_dimensional_solve_against_oracle(self):
        # the dense reference is still affordable at n = 16, d = 6
        n, d = 16, 6
        ks = KroneckerSum([laplacian_1d(n)] * d)
        grids = [Grid1D(n)] * d
        c_dense = sample_rhs(RhsSpec(kind="inv_linear", d=d), grids)
        c = tt_svd(c_dense, tol=1e-10)
        es = build_expsum(params_for_terms(0.5, 150))
        x, report = solve_tt(ks, c, es, round_tol=1e-10)
        assert all(r < 40 for r in x.ranks)
        ref = oracle_apply(ks, c_dense, 0.5)
        err = np.linalg.norm(x.to_dense() - ref)
        assert err <= report.error_bound


def _same_tt_solve(got, want) -> bool:
    """Whether two ``solve_tt`` results have bit-identical carriages and reports, ``wall_time`` aside."""
    (x, report), (y, ref) = got, want
    return (
        len(x.carriages) == len(y.carriages)
        and all(a.shape == b.shape and a.tobytes() == b.tobytes() for a, b in zip(x.carriages, y.carriages))
        and dataclasses.replace(report, wall_time=0.0) == dataclasses.replace(ref, wall_time=0.0)
    )


class TestTTFilterMemo:
    """``solve_tt`` builds the filter train once per operator, sum and budget, in the operator's filter store."""

    @pytest.fixture
    def setup(self, monkeypatch):
        rng = np.random.default_rng(24)
        factors = [random_spd(rng, n) for n in (4, 5, 3, 4)]
        c = tt_svd(rng.standard_normal((4, 5, 3, 4)), tol=0.0)
        calls = []
        cp_to_tt = solver._cp_to_tt

        def counted(*args):
            calls.append(args)
            return cp_to_tt(*args)

        monkeypatch.setattr(solver, "_cp_to_tt", counted)
        return factors, c, calls

    def test_repeated_solve_reuses_the_train(self, setup):
        factors, c, calls = setup
        ks = KroneckerSum(factors)
        es = build_expsum(params_for_terms(0.5, 40))
        first = solve_tt(ks, c, es, round_tol=1e-10)
        again = solve_tt(ks, c, es, round_tol=1e-10)
        assert len(calls) == 1
        assert _same_tt_solve(again, first)
        assert _same_tt_solve(again, solve_tt(KroneckerSum(factors), c, es, round_tol=1e-10))

    def test_interleaved_sums_and_thresholds_match_a_fresh_operator(self, setup):
        factors, c, calls = setup
        ks = KroneckerSum(factors)
        es1, es2 = (build_expsum(params_for_terms(0.5, n)) for n in (30, 50))
        steps = [(es1, 1e-10), (es2, 1e-10), (es1, 1e-10), (es1, 1e-6), (es1, 1e-6), (es2, 1e-6), (es1, 1e-10)]
        seen, got = set(), []
        for es, round_tol in steps:
            # the store keeps every train: only a sum and threshold not met before builds one
            seen.add((es, round_tol))
            got.append(solve_tt(ks, c, es, round_tol=round_tol))
            assert len(calls) == len(seen)
        rebuilds = len(seen)
        assert rebuilds == 4
        # a fresh operator is another key, so each of these solves builds its own train
        for (es, round_tol), x in zip(steps, got):
            assert _same_tt_solve(x, solve_tt(KroneckerSum(factors), c, es, round_tol=round_tol))
        assert len(calls) == rebuilds + len(steps)

    def test_an_equal_sum_reuses_the_train(self, setup):
        factors, c, calls = setup
        ks = KroneckerSum(factors)
        first = solve_tt(ks, c, build_expsum(params_for_terms(0.5, 30)))
        again = solve_tt(ks, c, build_expsum(params_for_terms(0.5, 30)))
        assert len(calls) == 1
        assert _same_tt_solve(again, first)

    def test_each_rounding_gets_half_the_allowance(self, setup, monkeypatch):
        factors, c, calls = setup
        tols = []
        hadamard_round = solver._tt_hadamard_round

        def spy(a, b, tol):
            tols.append(tol)
            return hadamard_round(a, b, tol)

        monkeypatch.setattr(solver, "_tt_hadamard_round", spy)
        es = build_expsum(params_for_terms(0.5, 40))
        _, exact = solve_tt(KroneckerSum(factors), c, es, round_tol=0.0)
        calls.clear()
        tols.clear()
        _, report = solve_tt(KroneckerSum(factors), c, es, round_tol=1e-10)
        half = (es.n_terms - 1) * 1e-10 / 2
        # the filter's budget, and the product's relative to ||c||
        assert [args[1] for args in calls] == tols == [half]
        assert report.error_bound - exact.error_bound == pytest.approx(2 * half * tt_norm(c), rel=1e-9)

    def test_the_product_receives_a_left_orthogonal_filter(self, setup, monkeypatch):
        # and a left-orthogonal rotated right-hand side, although c is not left-orthogonal
        factors, c, _ = setup
        c = not_left_orthogonal(c)
        received = []
        hadamard_round = solver._tt_hadamard_round

        def spy(a, b, tol):
            received.append((a, b))
            return hadamard_round(a, b, tol)

        monkeypatch.setattr(solver, "_tt_hadamard_round", spy)
        ks = KroneckerSum(factors)
        es = build_expsum(params_for_terms(0.5, 40))
        for round_tol in (0.0, 1e-10, 1e-10):
            solve_tt(ks, c, es, round_tol=round_tol)
        filters = [a for a, _ in received]
        assert filters[0] is not filters[1] is filters[2] is ks._filters.train(ks, es, (es.n_terms - 1) * 1e-10 / 2)
        for pair in received:
            for train in pair:
                for core in _as_cores(train)[:-1]:
                    m = core.reshape(-1, core.shape[2])
                    assert np.linalg.norm(m.T @ m - np.eye(m.shape[1])) <= 1e-13

    def test_repeated_solve_runs_no_qr_sweep_on_the_filter(self, setup, monkeypatch):
        factors, c, _ = setup
        swept = []
        left_orthogonal = tensors._left_orthogonal

        def counted(cores):
            swept.append(tuple(core.shape[2] for core in cores[:-1]))
            return left_orthogonal(cores)

        monkeypatch.setattr(tensors, "_left_orthogonal", counted)
        ks = KroneckerSum(factors)
        es = build_expsum(params_for_terms(0.5, 40))
        solve_tt(ks, c, es, round_tol=1e-10)
        swept.clear()
        solve_tt(ks, c, es, round_tol=1e-10)
        # only the sweep that gives the norm of c
        assert ks._filters.train(ks, es, (es.n_terms - 1) * 1e-10 / 2).ranks != c.ranks
        assert swept == [c.ranks]

    def test_a_right_hand_side_is_swept_once(self, setup, monkeypatch):
        factors, c, _ = setup
        c = not_left_orthogonal(c)
        swept = []
        left_orthogonal = tensors._left_orthogonal

        def counted(cores):
            swept.append(tuple(core.shape[2] for core in cores[:-1]))
            return left_orthogonal(cores)

        monkeypatch.setattr(tensors, "_left_orthogonal", counted)
        solve_tt(KroneckerSum(factors), c, build_expsum(params_for_terms(0.5, 40)), round_tol=1e-10)
        # the sweep that gives ||c|| also makes c left-orthogonal for the product
        assert swept == [c.ranks]


def _same_solve(got, want) -> bool:
    """Whether two dense, CP or Tucker solve results are bit-identical, reports included, ``wall_time`` aside."""
    (x, report), (y, ref) = got, want

    def arrays(z):
        return [z] if isinstance(z, np.ndarray) else [*z.factors, *([z.core] if isinstance(z, TuckerTensor) else [])]

    return all(a.shape == b.shape and a.tobytes() == b.tobytes() for a, b in zip(arrays(x), arrays(y))) and (
        dataclasses.replace(report, wall_time=0.0) == dataclasses.replace(ref, wall_time=0.0)
    )


class TestFilterStore:
    """Each operator keeps the filters of the sums applied to it, factors, dense and train forms alike, within its cap."""

    @pytest.fixture
    def counted(self, monkeypatch):
        """Calls of the filter's builder and of CP densification, by name."""
        calls = {"build": 0, "densify": 0}
        sum_filter, to_dense = solver._sum_filter, CPTensor.to_dense

        def build(*args):
            calls["build"] += 1
            return sum_filter(*args)

        def densify(self, *args):
            calls["densify"] += 1
            return to_dense(self, *args)

        monkeypatch.setattr(solver, "_sum_filter", build)
        monkeypatch.setattr(CPTensor, "to_dense", densify)
        return calls

    @staticmethod
    def _factors(seed=25, sizes=(8, 8, 8)):
        rng = np.random.default_rng(seed)
        return [random_spd(rng, n) for n in sizes]

    def test_repeated_dense_solves_build_and_densify_the_filter_once(self, counted):
        factors = self._factors()
        ks = KroneckerSum(factors)
        es = build_expsum(params_for_terms(0.5, 40))
        c = np.random.default_rng(26).standard_normal(ks.shape)
        got = [solve_dense(ks, c, es) for _ in range(3)]
        assert counted == {"build": 1, "densify": 1}
        fresh = solve_dense(KroneckerSum(factors), c, es)
        assert all(_same_solve(x, fresh) for x in got)

    def test_cp_then_tucker_build_the_factors_once(self, counted):
        # the pattern of a lowrank-3d request: one rank-one right-hand side, both factored paths
        factors = self._factors(sizes=(6, 5, 4))
        ks = KroneckerSum(factors)
        es = build_expsum(params_for_terms(0.5, 30))
        rng = np.random.default_rng(27)
        vs = [rng.standard_normal(n) for n in ks.shape]
        cp = CPTensor.from_rank1(vs)
        norms = [np.linalg.norm(v) for v in vs]
        tucker = TuckerTensor(core=np.full((1, 1, 1), np.prod(norms)), factors=tuple((v / r)[:, None] for v, r in zip(vs, norms)))
        x_cp, x_tucker = solve_cp(ks, cp, es), solve_tucker(ks, tucker, es)
        assert counted["build"] == 1
        assert _same_solve(x_cp, solve_cp(KroneckerSum(factors), cp, es))
        assert _same_solve(x_tucker, solve_tucker(KroneckerSum(factors), tucker, es))

    def test_repeated_all_wide_tucker_solves_densify_the_filter_once(self, counted):
        # N * r_i >= n_i on every mode: a rank-one core reads the kept dense filter too
        factors = self._factors(sizes=(6, 5, 4))
        ks = KroneckerSum(factors)
        es = build_expsum(params_for_terms(0.5, 30))
        rng = np.random.default_rng(32)
        factors_c = tuple(np.linalg.qr(rng.standard_normal((n, 1)))[0] for n in ks.shape)
        c = TuckerTensor(core=np.full((1, 1, 1), 2.5), factors=factors_c)
        got = [solve_tucker(ks, c, es) for _ in range(3)]
        assert counted == {"build": 1, "densify": 1}
        fresh = solve_tucker(KroneckerSum(factors), c, es)
        assert all(_same_solve(x, fresh) for x in got)
        x, report = got[0]
        assert x.ranks == report.ranks == ks.shape
        assert all(np.array_equal(f, q) for f, (_, q) in zip(x.factors, ks.spectra))

    def test_a_cap_of_two_dense_forms_keeps_the_first_two(self, counted):
        factors = self._factors()
        # two dense forms and the factors of N = 10 and 20 on 8^3 (24 rows of N)
        cap = 2 * 8**3 + 240 + 480
        ks = KroneckerSum(factors, memory_cap=cap)
        sums = [build_expsum(params_for_terms(0.5, n)) for n in (10, 20, 30)]
        c = np.random.default_rng(28).standard_normal(ks.shape)
        order = sums + sums[:2] + sums[1:2]
        got, densified = [], []
        for es in order:
            before = counted["densify"]
            got.append(solve_dense(ks, c, es))
            densified.append(counted["densify"] - before)
            assert ks._filters.held() <= cap
        # sum 2's factors and dense form do not fit beside sums 0 and 1, so neither is kept; 0 and 1 stay
        assert densified == [1, 1, 1, 0, 0, 0]
        assert list(ks._filters._forms) == [(es, form) for es in sums[:2] for form in ("factors", "dense")]
        assert ks._filters.held() == cap
        assert counted["build"] == 3
        # under the cap the filters densify in chunks, so the reference is a fresh operator with the same cap
        for es, x in zip(order, got):
            assert _same_solve(x, solve_dense(KroneckerSum(factors, memory_cap=cap), c, es))

    def test_a_dense_form_that_does_not_fit_beside_the_train_is_not_kept(self):
        # the cap holds the 240 entries of the factors and the 280-entry train, and no dense form beside them
        factors = self._factors()
        cap = 240 + 280
        ks = KroneckerSum(factors, memory_cap=cap)
        c = np.random.default_rng(29).standard_normal(ks.shape)
        es = build_expsum(params_for_terms(0.5, 10))
        solve_tt(ks, tt_svd(c, tol=0.0), es, round_tol=1e-10)
        kept = [(es, "factors"), (es, (es.n_terms - 1) * 1e-10 / 2)]
        assert list(ks._filters._forms) == kept
        assert ks._filters.held() == cap
        # the kept forms stay, and the dense form is built for the solve only
        x = solve_dense(ks, c, es)
        assert list(ks._filters._forms) == kept
        assert ks._filters.held() == cap
        assert _same_solve(x, solve_dense(KroneckerSum(factors, memory_cap=cap), c, es))

    def test_kept_arrays_are_read_only(self):
        ks = KroneckerSum(self._factors())
        es = build_expsum(params_for_terms(0.5, 10))
        c = np.random.default_rng(30).standard_normal(ks.shape)
        solve_dense(ks, c, es)
        solve_tt(ks, tt_svd(c, tol=0.0), es, round_tol=1e-10)
        kept = []
        for form, _ in ks._filters._forms.values():
            kept += form.factors if isinstance(form, CPTensor) else getattr(form, "carriages", [form])
        # the factors, the dense form and the train's carriages
        assert len(kept) == 3 + 1 + 3
        for a in kept:
            with pytest.raises(ValueError):
                a[(0,) * a.ndim] = 1.0

    def test_a_train_above_the_cap_is_not_kept(self):
        # the 280-entry train of the sum does not fit a cap of 279 beside its 240 factor entries;
        # the solve is the default-cap one
        factors = self._factors()
        c = tt_svd(np.random.default_rng(34).standard_normal((8, 8, 8)), tol=0.0)
        es = build_expsum(params_for_terms(0.5, 10))
        default = KroneckerSum(factors)
        want, _ = solve_tt(default, c, es, round_tol=1e-10)
        assert default._filters.held() == 240 + 280
        ks = KroneckerSum(factors, memory_cap=279)
        x, _ = solve_tt(ks, c, es, round_tol=1e-10)
        assert ks._filters.held() == 240 and list(ks._filters._forms) == [(es, "factors")]
        assert [a.shape for a in x.carriages] == [a.shape for a in want.carriages]
        assert all(a.tobytes() == b.tobytes() for a, b in zip(x.carriages, want.carriages))

    def test_many_sums_keep_their_factors_within_the_cap(self):
        # 200 CP solves with N = 3 .. 202 on 16^3: the factors of N = 3 .. 64 take 48 * N entries
        # each, 99,696 together; N = 65 would not fit beside them, nor would any later sum
        factors = [laplacian_1d(16)] * 3
        cap = 100_000
        ks, default = KroneckerSum(factors, memory_cap=cap), KroneckerSum(factors)
        c = CPTensor.from_rank1([np.random.default_rng(35).standard_normal(16) for _ in range(3)])
        sums = [build_expsum(params_for_terms(0.5, n)) for n in range(3, 203)]
        for es in sums:
            got = solve_cp(ks, c, es)
            assert ks._filters.held() <= cap
            assert _same_solve(got, solve_cp(default, c, es))
        assert list(ks._filters._forms) == [(es, "factors") for es in sums[:62]]
        assert ks._filters.held() == 48 * sum(range(3, 65)) == 99_696

    def test_a_kept_train_dies_with_its_operator(self):
        ks = KroneckerSum(self._factors())
        es = build_expsum(params_for_terms(0.5, 10))
        solve_tt(ks, tt_svd(np.ones(ks.shape), tol=0.0), es, round_tol=1e-10)
        kept = weakref.ref(ks._filters.train(ks, es, (es.n_terms - 1) * 1e-10 / 2))
        assert kept() is not None
        del ks
        assert kept() is None

    def test_threads_sharing_a_store_keep_it_within_the_cap(self):
        factors = self._factors()
        cap = 2 * 8**3
        ks = KroneckerSum(factors, memory_cap=cap)
        sums = [build_expsum(params_for_terms(0.5, n)) for n in (10, 20, 30)]
        c = np.random.default_rng(31).standard_normal(ks.shape)
        want = {es: solve_dense(KroneckerSum(factors, memory_cap=cap), c, es) for es in sums}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=6) as pool:
                futures = [pool.submit(solve_dense, ks, c, sums[i % 3]) for i in range(60)]
                got = [(f.result(timeout=60), sums[i % 3]) for i, f in enumerate(futures)]
        finally:
            sys.setswitchinterval(interval)
        assert all(_same_solve(x, want[es]) for x, es in got)
        assert ks._filters.held() <= cap


def not_left_orthogonal(c: TTTensor) -> TTTensor:
    """``c`` with carriage 0 scaled by 1.37, so that its left parts are no longer orthonormal."""
    return TTTensor((1.37 * c.carriages[0], *c.carriages[1:]))


class TestFormatConsistency:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_all_formats_agree(self, seed):
        rng = np.random.default_rng(seed)
        ks = KroneckerSum([random_spd(rng, 8) for _ in range(3)])
        cp = CPTensor(tuple(rng.standard_normal((8, 2)) for _ in range(3)))
        dense = cp.to_dense()
        es = make_es(0.5, 1e-4)
        x_dense, _ = solve_dense(ks, dense, es)
        paths = [
            solve_cp(ks, cp, es)[0].to_dense(),
            solve_tucker(ks, hosvd(dense, tol=1e-14), es)[0].to_dense(),
            solve_tt(ks, tt_svd(dense, tol=0.0), es, round_tol=0.0)[0].to_dense(),
        ]
        for x in paths:
            assert np.linalg.norm(x - x_dense) <= 1e-11 * np.linalg.norm(x_dense)


class TestCertifiedSumBound:
    """Solves with the a-posteriori certified sum of :func:`best_expsum`."""

    @pytest.fixture(scope="class")
    def setup(self):
        ks = KroneckerSum([laplacian_1d(8)] * 3)
        grids = [Grid1D(8)] * 3
        rhs = sample_rhs(RhsSpec(kind="random_rank1", d=3, seed=4), grids)
        dense = rhs.to_dense()
        return ks, rhs, dense, oracle_apply(ks, dense, 0.5), best_expsum(0.5, 200)

    @pytest.mark.parametrize("fmt", ["dense", "cp", "tucker", "tt"])
    def test_error_within_reported_bound(self, setup, fmt):
        ks, rhs, dense, ref, es = setup
        if fmt == "dense":
            x, report = solve_dense(ks, dense, es)
        elif fmt == "cp":
            x, report = solve_cp(ks, rhs, es)
        elif fmt == "tucker":
            x, report = solve_tucker(ks, hosvd(dense, tol=1e-14), es)
        else:
            x, report = solve_tt(ks, tt_svd(dense, tol=0.0), es, round_tol=0.0)
        x = x if isinstance(x, np.ndarray) else x.to_dense()
        err = float(np.linalg.norm(x - ref))
        assert err <= report.error_bound
        # the reported bound is the certificate, far below the a-priori one
        a_priori = ks.lambda_min**-0.5 * total_error_bound(es.params) * float(np.linalg.norm(dense))
        assert report.error_bound <= 1e-6 * a_priori

    def test_hand_built_sum_does_not_inherit_certificate(self, setup):
        es = setup[-1]
        with pytest.raises(TypeError):
            ExpSum(es.params, es.weights * (1.0 + 1e-3), es.exponents)


class TestOracle:
    def test_alpha_one_solves_sylvester(self):
        rng = np.random.default_rng(15)
        a1, a2 = random_spd(rng, 6), random_spd(rng, 6)
        ks = KroneckerSum([a1, a2])
        c = rng.standard_normal((6, 6))
        x = oracle_apply(ks, c, 1.0)
        residual = a1 @ x + x @ a2.T - c
        assert np.linalg.norm(residual) <= 1e-10 * np.linalg.norm(c)

    def test_alpha_zero_is_identity(self):
        rng = np.random.default_rng(16)
        ks = KroneckerSum([random_spd(rng, 5), random_spd(rng, 4)])
        c = rng.standard_normal((5, 4))
        np.testing.assert_allclose(oracle_apply(ks, c, 0.0), c, atol=1e-12)

    def test_against_brute_force_matrix_power(self):
        rng = np.random.default_rng(17)
        factors = [random_spd(rng, 6), random_spd(rng, 6)]
        ks = KroneckerSum(factors)
        c = rng.standard_normal((6, 6))
        alpha = 0.37
        w, v = np.linalg.eigh(kron_sum_matrix(factors))
        ref = v @ ((w**-alpha) * (v.T @ vec(c)))
        assert np.linalg.norm(vec(oracle_apply(ks, c, alpha)) - ref) <= 1e-11 * np.linalg.norm(ref)

    def test_memory_cap(self):
        with pytest.raises(MemoryCapError, match=r"^dense oracle needs 512 entries, cap is 511$"):
            oracle_apply(KroneckerSum([np.eye(8)] * 3, memory_cap=511), np.zeros((8, 8, 8)), 0.5)
        assert oracle_apply(KroneckerSum([np.eye(8)] * 3, memory_cap=512), np.ones((8, 8, 8)), 0.5).shape == (8, 8, 8)


class TestExpKronApply:
    def test_zero_time_is_identity(self):
        rng = np.random.default_rng(18)
        ks = KroneckerSum([random_spd(rng, 4), random_spd(rng, 3)])
        c = rng.standard_normal((4, 3))
        np.testing.assert_allclose(exp_kron_apply(ks, c, 0.0), c, atol=1e-13)

    def test_against_brute_force_exponential(self):
        rng = np.random.default_rng(19)
        factors = [random_spd(rng, 4), random_spd(rng, 4)]
        ks = KroneckerSum(factors)
        c = rng.standard_normal((4, 4))
        t = 0.7
        ref = expm_taylor(t * kron_sum_matrix(factors)) @ vec(c)
        assert np.linalg.norm(vec(exp_kron_apply(ks, c, t)) - ref) <= 1e-11 * np.linalg.norm(ref)

    def test_semigroup_property(self):
        rng = np.random.default_rng(20)
        ks = KroneckerSum([random_spd(rng, 5), random_spd(rng, 4)])
        c = rng.standard_normal((5, 4))
        once = exp_kron_apply(ks, c, 0.9)
        twice = exp_kron_apply(ks, exp_kron_apply(ks, c, 0.4), 0.5)
        np.testing.assert_allclose(twice, once, rtol=1e-11, atol=1e-13)


class TestSolveReport:
    def test_rejects_negative_bound(self):
        for bound in (-1.0, np.nan):  # NaN fails too
            with pytest.raises(ValueError, match="error_bound must be nonnegative"):
                SolveReport(n_terms=1, error_bound=bound, wall_time=0.0)


class TestNonFiniteInput:
    """Non-finite input fails with a one-line ``ValueError`` instead of a NaN or infinite bound."""

    @pytest.fixture
    def setup(self):
        rng = np.random.default_rng(30)
        ks = KroneckerSum([random_spd(rng, 4), random_spd(rng, 3), random_spd(rng, 5)])
        return ks, rng.standard_normal((4, 3, 5)), make_es()

    @staticmethod
    def raises(match, fn, *args, **kwargs):
        with pytest.raises(ValueError, match=match) as info:
            fn(*args, **kwargs)
        assert "\n" not in str(info.value)

    def test_factor_with_inf_entry(self):
        a = np.eye(3)
        a[1, 1] = np.inf
        self.raises("non-finite", KroneckerSum, [np.eye(2), a])

    def test_dense_rhs_with_nan_entry(self, setup):
        ks, c, es = setup
        c[1, 2, 3] = np.nan
        self.raises("norm is nan", solve_dense, ks, c, es)

    def test_cp_factor_with_inf_entry(self, setup):
        ks, c, es = setup
        factors = [np.ones((n, 2)) for n in c.shape]
        factors[1][0, 1] = np.inf
        self.raises("must be finite", solve_cp, ks, CPTensor(tuple(factors)), es)

    def test_tucker_factor_with_nan_entry(self):
        f = np.eye(4)[:, :2].copy()
        f[0, 0] = np.nan
        self.raises("not orthonormal", TuckerTensor, np.ones((2, 2)), (f, np.eye(3)[:, :2]))

    def test_tucker_core_with_nan_entry(self, setup):
        ks, c, es = setup
        t = hosvd(c, tol=1e-14)
        core = t.core.copy()
        core[0, 0, 0] = np.nan
        self.raises("norm is nan", solve_tucker, ks, TuckerTensor(core, t.factors), es)

    def test_tt_carriage_with_nan_entry(self, setup):
        ks, c, es = setup
        t = tt_svd(c, tol=0.0)
        last = t.carriages[-1].copy()
        last[0, 0] = np.nan
        self.raises("norm is nan", solve_tt, ks, TTTensor(t.carriages[:-1] + (last,)), es)

    @pytest.mark.parametrize("round_tol", [np.nan, np.inf])
    def test_non_finite_round_tol(self, setup, round_tol):
        ks, c, es = setup
        self.raises("round_tol must be finite", solve_tt, ks, tt_svd(c, tol=0.0), es, round_tol=round_tol)

    def test_oracle_nan_alpha(self, setup):
        ks, c, _ = setup
        self.raises("alpha must be finite", oracle_apply, ks, c, np.nan)

    def test_oracle_rhs_with_inf_entry(self, setup):
        ks, c, _ = setup
        c[0, 0, 0] = np.inf
        self.raises("norm is inf", oracle_apply, ks, c, 0.5)
