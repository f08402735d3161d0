"""Property tests: every solve stays within the bound it reports."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fracsum.expsum import build_expsum, params_for_terms
from fracsum.solver import (
    KroneckerSum,
    _sum_filter,
    oracle_apply,
    solve_cp,
    solve_dense,
    solve_tt,
    solve_tucker,
)
from fracsum.tensors import CPTensor, _cp_to_tt, hosvd, tt_svd

from _oracles import random_spd


@st.composite
def problems(draw):
    """Random SPD factors (d in 2..4, n <= 6), alpha, a sum length and a rounding tolerance."""
    shape = tuple(draw(st.lists(st.integers(2, 6), min_size=2, max_size=4)))
    return dict(
        shape=shape,
        seed=draw(st.integers(0, 2**32 - 1)),
        spread=draw(st.sampled_from([1.0, 1e3])),
        alpha=draw(st.floats(0.1, 0.9, exclude_min=True, exclude_max=True)),
        n_terms=draw(st.integers(5, 60)),
        round_tol=draw(st.sampled_from([0.0, 1e-12, 1e-8])),
    )


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(problems())
def test_dense_and_tt_solves_within_reported_bound(p):
    rng = np.random.default_rng(p["seed"])
    ks = KroneckerSum([random_spd(rng, n, p["spread"]) for n in p["shape"]])
    c = rng.standard_normal(p["shape"])
    es = build_expsum(params_for_terms(p["alpha"], p["n_terms"]))
    ref = oracle_apply(ks, c, p["alpha"])
    x, report = solve_dense(ks, c, es)
    assert np.linalg.norm(x - ref) <= report.error_bound
    x, report = solve_tt(ks, tt_svd(c, tol=0.0), es, round_tol=p["round_tol"])
    assert np.linalg.norm(x.to_dense() - ref) <= report.error_bound


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(problems())
def test_tt_solve_within_rounding_allowance_of_the_sum(p):
    """The quadrature bound dwarfs the rounding allowance, so check the rounding on its own.

    The train solve must stay within ``(N-1)*round_tol*||c||`` of the same sum
    applied densely, and its ranks within those of the rounded filter times
    those of ``c``.  A coarse ``round_tol`` joins the drawn one: only there
    does the rounding come near its allowance (about half of it), so only
    there would a mis-certified truncation show.
    """
    rng = np.random.default_rng(p["seed"])
    ks = KroneckerSum([random_spd(rng, n, p["spread"]) for n in p["shape"]])
    c = rng.standard_normal(p["shape"])
    es = build_expsum(params_for_terms(p["alpha"], p["n_terms"]))
    c_tt = tt_svd(c, tol=0.0)
    ref, _ = solve_dense(ks, c, es)
    for round_tol in (p["round_tol"], 1e-3):
        x, _ = solve_tt(ks, c_tt, es, round_tol=round_tol)
        allowance = (es.n_terms - 1) * round_tol * np.linalg.norm(c)
        assert np.linalg.norm(x.to_dense() - ref) <= allowance + 1e-12 * np.linalg.norm(ref)
        if allowance > 0.0:
            delta = 0.5 * (es.n_terms - 1) * round_tol / math.sqrt(len(p["shape"]) - 1)
            filter_ranks = _cp_to_tt(_sum_filter(ks, es).factors, delta).ranks
        else:
            filter_ranks = (es.n_terms,) * (len(p["shape"]) - 1)
        assert all(r <= rf * rc for r, rf, rc in zip(x.ranks, filter_ranks, c_tt.ranks))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(problems())
def test_cp_and_tucker_solves_within_reported_bound(p):
    rng = np.random.default_rng(p["seed"])
    ks = KroneckerSum([random_spd(rng, n, p["spread"]) for n in p["shape"]])
    es = build_expsum(params_for_terms(p["alpha"], p["n_terms"]))
    c = CPTensor(tuple(rng.standard_normal((n, 2)) for n in p["shape"]))
    x, report = solve_cp(ks, c, es)
    assert np.linalg.norm(x.to_dense() - oracle_apply(ks, c.to_dense(), p["alpha"])) <= report.error_bound
    c = hosvd(rng.standard_normal(p["shape"]), ranks=2)
    x, report = solve_tucker(ks, c, es)
    assert np.linalg.norm(x.to_dense() - oracle_apply(ks, c.to_dense(), p["alpha"])) <= report.error_bound
