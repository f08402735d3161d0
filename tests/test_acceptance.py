"""Acceptance suite: one test per release criterion, each printing a verdict line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
PASS/FAIL lines even on success.
"""

import math
import time

import numpy as np
import pytest

from fracsum.cli import main as cli_main
from fracsum.expsum import (
    build_expsum,
    evaluate,
    params_for_terms,
    select_params,
    total_error_bound,
)
from fracsum.problems import Grid1D, RhsSpec, laplacian_1d, sample_rhs
from fracsum.solver import (
    KroneckerSum,
    oracle_apply,
    solve_cp,
    solve_dense,
    solve_tt,
    solve_tucker,
)
from fracsum.tensors import CPTensor, hosvd, tt_svd

from _oracles import exp_kron_apply, expm_taylor, kron_sum_matrix, log_abs_g, numerical_multilinear_ranks, random_spd, vec

XI = np.logspace(0.0, 6.0, 100)


def _verdict(criterion: int, ok: bool, detail: str) -> None:
    print(f"[acceptance] criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _max_error(alpha: float, eps: float):
    params = select_params(alpha, eps)
    es = build_expsum(params)
    err = float(np.max(np.abs(evaluate(es, XI) - XI ** (-alpha))))
    return params, err


def test_criterion_1_certified_expsum_accuracy():
    start = time.perf_counter()
    violations = []
    worst_margin = 0.0
    for alpha in (0.25, 0.5, 0.75):
        for eps in (1e-4, 1e-8, 1e-12):
            params, err = _max_error(alpha, eps)
            bound = total_error_bound(params)
            worst_margin = max(worst_margin, err / bound)
            if err > bound:
                violations.append((alpha, eps, err, bound))
    elapsed = time.perf_counter() - start
    _verdict(
        1,
        not violations and elapsed < 10.0,
        f"0 violations over 9 configs x 100 points, worst error/bound = {worst_margin:.2e}, "
        f"runtime {elapsed:.1f}s (< 10s)",
    )


def test_criterion_2_convergence_rate():
    details = []
    ok = True
    for alpha in (0.25, 0.75):
        d = math.pi * alpha / 8.0
        rows = {}
        for log_inv_eps in np.linspace(2.5, 40.0, 120):
            params = select_params(alpha, math.exp(-log_inv_eps))
            es = build_expsum(params)
            err = float(np.max(np.abs(evaluate(es, XI) - XI ** (-alpha))))
            rows[params.n_terms] = err
        n = np.array(sorted(rows))
        err = np.array([rows[k] for k in n])
        mask = (err >= 1e-12) & (err <= 1e-2)
        slope = np.polyfit(np.sqrt(n[mask]), np.log(err[mask]), 1)[0]
        target = -math.sqrt(2.0 * math.pi * d)
        deviation = abs(slope - target) / abs(target)
        ok = ok and deviation <= 0.25
        details.append(f"alpha={alpha}: slope {slope:.3f} vs {target:.3f} ({deviation:.1%} off)")
    _verdict(2, ok, "; ".join(details))


def test_criterion_3_decay_bounds_and_factorization():
    # negative half-plane decay: |g| <= exp(-|gamma|)
    neg_points = 0
    neg_violations = 0
    for alpha in (0.2, 0.35, 0.5, 0.65, 0.8, 0.9, 0.95):
        d_cap = min(math.pi / 3.0, math.asin(min(1.0, math.tan(alpha * math.pi / 2.0) / 4.0)))
        for frac in (0.15, 0.4, 0.65, 0.9):
            d = frac * d_cap
            for gamma in np.linspace(-30.0, 0.0, 30):
                for xi in (0.5, 1.0, 3.0, 10.0, 1e2, 1e3):
                    for sign in (1.0, -1.0):
                        neg_points += 1
                        if log_abs_g(complex(gamma, sign * d), xi, alpha) > -abs(gamma) + 1e-12:
                            neg_violations += 1
    # positive half-plane decay: |g| <= exp(-xi*g^(1/a)*cos(d/(a*max(g,1/2))))
    pos_points = 0
    pos_violations = 0
    for alpha in (0.25, 0.4, 0.55, 0.7, 0.85):
        for frac in (0.1, 0.35, 0.6, 0.85):
            d = frac * alpha * math.pi / 4.0
            for gamma in np.linspace(0.05, 12.0, 25):
                for xi in np.logspace(-0.3, 3.0, 10):
                    for sign in (1.0, -1.0):
                        pos_points += 1
                        bound = -xi * gamma ** (1.0 / alpha) * math.cos(
                            d / (alpha * max(gamma, 0.5))
                        )
                        if log_abs_g(complex(gamma, sign * d), xi, alpha) > bound + 1e-9 * abs(bound) + 1e-12:
                            pos_violations += 1
    # exponential of a Kronecker sum factorizes into per-mode exponentials
    rng = np.random.default_rng(123)
    worst_exp = 0.0
    for _ in range(20):
        n1, n2 = rng.integers(2, 7, size=2)
        factors = [random_spd(rng, int(n1)), random_spd(rng, int(n2))]
        ks = KroneckerSum(factors)
        c = rng.standard_normal((int(n1), int(n2)))
        ref = expm_taylor(kron_sum_matrix(factors)) @ vec(c)
        err = np.linalg.norm(vec(exp_kron_apply(ks, c, 1.0)) - ref) / np.linalg.norm(ref)
        worst_exp = max(worst_exp, err)
    ok = (
        neg_points >= 10_000
        and pos_points >= 10_000
        and neg_violations == 0
        and pos_violations == 0
        and worst_exp <= 1e-11
    )
    _verdict(
        3,
        ok,
        f"decay bounds: {neg_points}+{pos_points} grid points, "
        f"{neg_violations + pos_violations} violations; exponential factorization "
        f"worst relative error {worst_exp:.2e} over 20 instances (<= 1e-11)",
    )


def test_criterion_4_oracle_equivalence():
    start = time.perf_counter()
    n, d = 32, 3
    ks = KroneckerSum([laplacian_1d(n)] * d)
    grids = [Grid1D(n)] * d
    ok = True
    worst_rel = 0.0
    for alpha in (0.4, 0.5, 0.9):
        es = build_expsum(select_params(alpha, 1e-10))
        for kind in ("inv_linear", "separable"):
            rhs = sample_rhs(RhsSpec(kind=kind, d=d), grids)
            dense = rhs if isinstance(rhs, np.ndarray) else rhs.to_dense()
            x, report = solve_dense(ks, dense, es)
            ref = oracle_apply(ks, dense, alpha)
            rel = float(np.linalg.norm(x - ref) / np.linalg.norm(ref))
            bound_rel = report.error_bound / float(np.linalg.norm(ref))
            ok = ok and rel <= bound_rel and rel <= 1e-8
            worst_rel = max(worst_rel, rel)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    _verdict(
        4,
        ok,
        f"3 exponents x 2 rhs kinds at n=32: worst relative error {worst_rel:.2e} "
        f"(certified and <= 1e-8), runtime {elapsed:.1f}s (< 60s)",
    )


def test_criterion_5_rank_certificates():
    rng = np.random.default_rng(2024)
    n, d = 8, 3
    ks = KroneckerSum([random_spd(rng, n) for _ in range(d)])
    rhs = CPTensor.from_rank1([rng.standard_normal(n) for _ in range(d)])
    rhs_tt = tt_svd(rhs.to_dense(), tol=0.0)
    details = []
    ok = True
    for n_terms in (5, 20, 100):
        es = build_expsum(params_for_terms(0.5, n_terms))
        assert es.n_terms == n_terms
        x_cp, _ = solve_cp(ks, rhs, es)
        ml = numerical_multilinear_ranks(x_cp.to_dense())
        x_tt, _ = solve_tt(ks, rhs_tt, es, round_tol=0.0)
        ok = (
            ok
            and x_cp.rank == n_terms
            and all(r <= n_terms for r in ml)
            and all(r <= n_terms for r in x_tt.ranks)
        )
        details.append(f"N={n_terms}: cp={x_cp.rank}, ml<={max(ml)}, tt<={max(x_tt.ranks)}")
    _verdict(5, ok, "; ".join(details))


def test_criterion_6_format_equivalence():
    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        ks = KroneckerSum([random_spd(rng, 8) for _ in range(3)])
        cp = CPTensor(tuple(rng.standard_normal((8, 2)) for _ in range(3)))
        dense = cp.to_dense()
        es = build_expsum(select_params(0.5, 1e-4))
        x_dense, _ = solve_dense(ks, dense, es)
        scale = float(np.linalg.norm(x_dense))
        for x in (
            solve_cp(ks, cp, es)[0].to_dense(),
            solve_tucker(ks, hosvd(dense, tol=1e-14), es)[0].to_dense(),
            solve_tt(ks, tt_svd(dense, tol=0.0), es, round_tol=0.0)[0].to_dense(),
        ):
            worst = max(worst, float(np.linalg.norm(x - x_dense)) / scale)
    _verdict(6, worst <= 1e-11, f"10 seeds, worst cross-format deviation {worst:.2e} (<= 1e-11)")


def test_criterion_7_mesh_independence():
    es = build_expsum(select_params(0.4, 1e-8))
    errs = {}
    for n in (32, 128):
        ks = KroneckerSum([laplacian_1d(n)] * 3)
        grids = [Grid1D(n)] * 3
        rhs = sample_rhs(RhsSpec(kind="separable", d=3), grids)
        x, _ = solve_cp(ks, rhs, es)
        ref = oracle_apply(ks, rhs.to_dense(), 0.4)
        errs[n] = float(np.linalg.norm(x.to_dense() - ref) / np.linalg.norm(ref))
    ok = errs[128] <= 2.0 * errs[32]
    _verdict(
        7,
        ok,
        f"N={es.n_terms}: relative error {errs[32]:.3e} at n=32 vs {errs[128]:.3e} at n=128 "
        f"(ratio {errs[128] / errs[32]:.2f} <= 2)",
    )


def test_criterion_8_high_dimensional_accuracy(tmp_path):
    # NOTE: the 200-term sum of the a-priori rule params_for_terms at
    # alpha = 0.5 targets eps = 1.24e-6, errs by 1.33e-6 (sampled) and is
    # certified a priori at 2.3e-4; tt-highd --N instead uses best_expsum,
    # the most accurate 200-term sum of the same family, certified a
    # posteriori at ~8.3e-14, which puts the solve error near 1e-10.
    out = tmp_path / "tt4.dat"
    assert cli_main(["tt-highd", "--d", "4", "--n", "16", "--alpha", "0.5", "--N", "200", "--out", str(out)]) == 0
    d, wall, err, rank = np.loadtxt(out)
    _verdict(8, err <= 1e-6, f"d=4, N=200 relative error vs oracle {err:.3e} (threshold 1e-6)")


def test_criterion_8_high_dimensional_runtime(tmp_path):
    out = tmp_path / "tt8.dat"
    start = time.perf_counter()
    assert cli_main(["tt-highd", "--d", "8", "--n", "16", "--alpha", "0.5", "--N", "200", "--out", str(out)]) == 0
    elapsed = time.perf_counter() - start
    d, wall, err, rank = np.loadtxt(out)
    ok = elapsed < 120.0 and rank >= 1 and math.isnan(err)
    _verdict(
        8,
        ok,
        f"d=8, N=200 completed in {elapsed:.1f}s (< 120s), max train rank {int(rank)} reported",
    )


def test_criterion_9_rank_decay_certificates(tmp_path):
    out = tmp_path / "lowrank.dat"
    assert cli_main(["rank-decay", "--n", "32", "--alpha", "0.5", "--N", "25", "--seed", "0", "--out", str(out)]) == 0
    data = np.loadtxt(out)
    n, cp, tucker, tt, constructive, certified, curve = data.T
    measured_ok = all(
        np.all(col <= constructive * (1.0 + 1e-9)) for col in (cp, tucker, tt)
    )
    curve_ok = np.all(certified <= curve * (1.0 + 1e-9))
    chain_ok = np.all(constructive <= certified * (1.0 + 1e-9))
    _verdict(
        9,
        measured_ok and curve_ok and chain_ok,
        f"ranks 3..25: measured distances <= constructed approximant error "
        f"(worst margin {float(np.max(np.maximum(cp, np.maximum(tucker, tt)) / constructive)):.2e}), "
        f"decay curve dominates the certified bound rowwise",
    )
