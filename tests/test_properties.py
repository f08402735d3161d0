"""Property tests: every solve stays within the bound it reports."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fracsum.expsum import build_expsum, params_for_terms
from fracsum.solver import KroneckerSum, oracle_apply, solve_dense, solve_tt
from fracsum.tensors import tt_svd

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
