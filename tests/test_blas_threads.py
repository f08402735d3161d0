"""Train roundings run on one OpenBLAS thread; every other kernel keeps the process's count."""

import dataclasses
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import fracsum
from fracsum import solver, tensors
from fracsum.expsum import build_expsum, params_for_terms
from fracsum.solver import KroneckerSum, solve_cp, solve_dense, solve_tt, solve_tucker
from fracsum.tensors import CPTensor, TTTensor, _sweep_round, hosvd, tt_round

from _oracles import random_spd

needs_openblas = pytest.mark.skipif(tensors._openblas() is None, reason="numpy bundles no OpenBLAS here")


def threads() -> int:
    """The process's OpenBLAS thread count, read through the handle the library switches it with."""
    return tensors._openblas()[0]()


@pytest.fixture
def two_threads():
    """Run the test at two OpenBLAS threads, so that a switch to one shows; yields the count read back."""
    get, set_ = tensors._openblas()
    saved = get()
    set_(2)
    yield get()
    set_(saved)


def rand_tt(shape, ranks, seed):
    rng = np.random.default_rng(seed)
    r = (1,) + tuple(ranks) + (1,)
    cores = [rng.standard_normal((r[k], n, r[k + 1])) for k, n in enumerate(shape)]
    cores[0], cores[-1] = cores[0][0], cores[-1][..., 0]
    return TTTensor(tuple(cores))


def small_problem(seed=0):
    d, n = 4, 10
    rng = np.random.default_rng(seed)
    ks = KroneckerSum([random_spd(rng, n) for _ in range(d)])
    return ks, build_expsum(params_for_terms(0.5, 30))


def same_tt_solve(got, want) -> bool:
    (x, report), (y, ref) = got, want
    return all(a.tobytes() == b.tobytes() for a, b in zip(x.carriages, y.carriages)) and dataclasses.replace(
        report, wall_time=0.0
    ) == dataclasses.replace(ref, wall_time=0.0)


@needs_openblas
class TestOneThreadPerRounding:
    def test_rounding_runs_on_one_thread_and_restores_the_count(self, two_threads, monkeypatch):
        seen = []
        truncation_rank = tensors._truncation_rank

        def spy(s, delta):
            seen.append(threads())
            return truncation_rank(s, delta)

        monkeypatch.setattr(tensors, "_truncation_rank", spy)
        tt_round(rand_tt((6, 5, 7, 4), (3, 4, 3), seed=1), 1e-8)
        assert seen and set(seen) == {1}
        assert threads() == two_threads

    def test_solve_tt_restores_the_count(self, two_threads):
        ks, es = small_problem()
        solve_tt(ks, rand_tt(ks.shape, (2, 3, 2), seed=2), es, round_tol=1e-10)
        assert threads() == two_threads

    def test_exception_inside_the_sweep_restores_the_count(self, two_threads):
        def left(k, m):
            raise RuntimeError("left contraction failed")

        def right(k, m, rows):
            return np.ones((len(m), len(range(5)[rows]), 1))

        with pytest.raises(RuntimeError, match="left contraction failed"):
            _sweep_round(left, right, (5, 5, 5), 0.0, block=2)
        assert threads() == two_threads

    def test_nested_roundings_restore_the_count_once(self, two_threads):
        x = rand_tt((4, 5, 4), (2, 3), seed=3)
        inner = []

        def left(k, m):
            tt_round(x, 0.0)
            inner.append(threads())
            return np.tensordot(m, tensors._as_cores(x)[k], axes=1)

        def right(k, m, rows):
            return np.tensordot(m, tensors._as_cores(x)[k][:, rows], axes=([1], [2])).transpose(0, 2, 1)

        _sweep_round(left, right, x.shape, 0.0, block=2)
        assert set(inner) == {1}
        assert threads() == two_threads

    @pytest.mark.parametrize("path", ["dense", "cp", "tucker"])
    def test_other_paths_run_at_the_process_count(self, two_threads, path, monkeypatch):
        ks, es = small_problem()
        seen = []
        in_eigenbasis = solver._in_eigenbasis

        def spy(ks, c, step):
            def spied(y):
                seen.append(threads())
                return step(y)

            return in_eigenbasis(ks, c, spied)

        monkeypatch.setattr(solver, "_in_eigenbasis", spy)
        c = np.random.default_rng(4).standard_normal(ks.shape)
        if path == "dense":
            solve_dense(ks, c, es)
        elif path == "cp":
            solve_cp(ks, CPTensor.from_rank1([c[:, 0, 0, 0], c[0, :, 0, 0], c[0, 0, :, 0], c[0, 0, 0, :]]), es)
        else:
            solve_tucker(ks, hosvd(c, ranks=3), es)
        assert seen == [two_threads]
        assert threads() == two_threads

    def test_concurrent_solves_match_serial_ones(self, two_threads):
        ks, es = small_problem()
        rhs = [rand_tt(ks.shape, (2, 3, 2), seed=10 + i) for i in range(4)]
        serial = [solve_tt(ks, c, es, round_tol=1e-10) for c in rhs]
        fresh, _ = small_problem()
        with ThreadPoolExecutor(max_workers=4) as pool:
            concurrent = list(pool.map(lambda c: solve_tt(fresh, c, es, round_tol=1e-10), rhs))
        assert all(same_tt_solve(got, want) for got, want in zip(concurrent, serial))
        assert threads() == two_threads

    def test_without_openblas_the_solve_is_unchanged(self, monkeypatch):
        ks, es = small_problem()
        c = rand_tt(ks.shape, (2, 3, 2), seed=5)
        x, report = solve_tt(ks, c, es, round_tol=1e-10)
        monkeypatch.setattr(tensors, "_openblas", lambda: None)
        y, ref = solve_tt(KroneckerSum(ks.factors), c, es, round_tol=1e-10)
        assert y.ranks == x.ranks
        assert ref.error_bound == report.error_bound


_DIGEST_SCRIPT = """
import hashlib, sys
sys.path.insert(0, {root!r})
from fracsum.expsum import build_expsum, params_for_terms
from fracsum.problems import Grid1D, RhsSpec, laplacian_1d, sample_rhs
from fracsum.solver import KroneckerSum, solve_tt
n, d = 16, 6
# below the 16**6 dense entries, above the 74,176 of the train's largest raw carriage
c = sample_rhs(RhsSpec(kind="inv_linear", d=d), [Grid1D(n)] * d, memory_cap=100000)
x, _ = solve_tt(KroneckerSum([laplacian_1d(n)] * d), c, build_expsum(params_for_terms(0.5, 100)))
h = hashlib.sha256()
for a in x.carriages:
    h.update(a.tobytes())
print(h.hexdigest())
"""


@needs_openblas
def test_train_solve_is_bit_identical_across_thread_settings():
    root = os.path.dirname(os.path.dirname(os.path.abspath(fracsum.__file__)))
    digests = set()
    for count in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-c", _DIGEST_SCRIPT.format(root=root)],
            capture_output=True,
            text=True,
            env=dict(os.environ, OPENBLAS_NUM_THREADS=count),
            check=True,
        )
        digests.add(proc.stdout.strip())
    assert len(digests) == 1
