"""Kronecker-sum solver: format paths, oracle and bounds."""

import dataclasses
import time

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

    def test_a_solve_leaves_only_the_factors_and_their_spectra(self):
        rng = np.random.default_rng(3)
        ks = KroneckerSum([random_spd(rng, n) for n in (4, 5, 3)])
        solve_tt(ks, tt_svd(rng.standard_normal(ks.shape), tol=0.0), make_es(), round_tol=1e-10)
        assert set(vars(ks)) == {"_factors", "spectra"}
        assert solver._tt_filter.cache_info().maxsize == 1

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
        ks = KroneckerSum([np.eye(8)] * 3)
        with pytest.raises(MemoryCapError):
            solve_dense(ks, np.zeros((8, 8, 8)), make_es(), memory_cap=100)
        x, _ = solve_dense(ks, np.zeros((8, 8, 8)), make_es(), memory_cap=512)
        assert x.shape == (8, 8, 8)


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
        # Tucker runs at full ranks, so its chunked core contraction sees
        # every mode in d = 2, 3 and 4.
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
    """``solve_tt`` builds the filter train once per operator, sum and budget, keeping one train per process."""

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
        rebuilds, last, got = 0, (None, None), []
        for es, round_tol in steps:
            rebuilds += last[0] is not es or last[1] != round_tol
            last = (es, round_tol)
            got.append(solve_tt(ks, c, es, round_tol=round_tol))
            assert len(calls) == rebuilds
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
        assert filters[0] is not filters[1] is filters[2] is solver._tt_filter(ks, es, (es.n_terms - 1) * 1e-10 / 2)
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
        assert solver._tt_filter(ks, es, (es.n_terms - 1) * 1e-10 / 2).ranks != c.ranks
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
        ks = KroneckerSum([np.eye(8)] * 3)
        with pytest.raises(MemoryCapError):
            oracle_apply(ks, np.zeros((8, 8, 8)), 0.5, memory_cap=100)


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
        with pytest.raises(ValueError):
            SolveReport(n_terms=1, error_bound=-1.0, wall_time=0.0)


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
