"""The four benchmark workloads.

Each workload mirrors one ``fracsum`` CLI subcommand at its paper-figure
defaults, but calls the library in-process, so argument parsing and ``.dat``
writing are not timed.  A workload is driven in four steps:

* ``setup(seed)`` builds everything a request reuses (operator, spectra,
  exponential sums) and is counted in ``setup_s``;
* ``make_input(k)`` derives the input of request ``k`` from ``(seed, k)``;
  it is not timed, and the library sees only what it returns;
* ``request(inp)`` is the timed call into the library;
* ``check(inp, out)`` compares the output with references and returns a
  :class:`Check`; it is not timed.

Every check applies two gates:

* **certified**: the error against the exact answer (``oracle_apply``,
  ``xi**-alpha``, or sampled entries of a longer certified sum) is within the
  reported ``error_bound``, which is what the library promises;
* **consistency**: the result matches the same exponential sum applied
  exactly in the eigenbasis, up to rounding (and, for trains, the
  recompression allowance).  The certified bound is up to ~400x looser than
  the error it certifies, so without this gate a result scaled by
  ``1 + 1e-3`` would pass on ``lowrank-3d`` and ``tt-highd``.

The library is reached through the ``fracsum`` package attributes at call
time, so the tracer's wrappers (see ``tracing.py``) see every call.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# Relative allowance for floating-point rounding when xi**-alpha is compared
# with a sum: each side is accurate to a few ulps of the value.
ROUNDING_ALLOWANCE = 8.0 * np.finfo(float).eps
# Relative tolerance of the consistency gate: far above the rounding of a
# few hundred accumulated terms, far below a 1e-3 perturbation.
CONSISTENCY_RTOL = 1e-9


@dataclass(frozen=True)
class Check:
    """Outcome of checking one request against its references."""

    ok: bool
    rel_error: float  # largest relative error against the exact answer
    rel_bound: float  # largest certified bound over the result's norm
    max_rank: int  # largest rank of the result (see each workload)
    reference_s: float = 0.0  # time spent in oracle_apply for this check
    detail: str = ""


def digest(arrays) -> str:
    """SHA-256 over the bytes, shapes and dtypes of a sequence of arrays."""
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(repr((a.shape, a.dtype.str)).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _rng(seed: int, k: int) -> np.random.Generator:
    """Generator of request ``k``; ``k = -1`` is the warm-up request."""
    return np.random.default_rng([seed, k + 1])


def _rotate(x: np.ndarray, qs, transpose: bool = False) -> np.ndarray:
    """Apply ``Q_i`` (or ``Q_i^T``) along every mode, with numpy only."""
    for i, q in enumerate(qs):
        x = np.moveaxis(np.tensordot(q.T if transpose else q, x, axes=(1, i)), 0, i)
    return x


def _decays(ks, es) -> list:
    """Per mode, ``exp(-t_j * lam / lambda_min)`` as an ``n_i x n_terms`` matrix."""
    lam_min = ks.lambda_min
    return [np.exp(-np.outer(lam / lam_min, es.exponents)) for lam, _ in ks.spectra]


def _khatri_rao_sum(weights, mats) -> np.ndarray:
    """``sum_j w_j * outer(mats[0][:, j], mats[1][:, j], ...)`` as a dense tensor."""
    letters = "abcdefgh"[: len(mats)]
    spec = "z," + ",".join(f"{a}z" for a in letters) + "->" + letters
    return np.einsum(spec, weights, *mats, optimize=True)


def _consistent(x, x_sum, allowance: float = 0.0) -> bool:
    return float(np.linalg.norm(x - x_sum)) <= allowance + CONSISTENCY_RTOL * float(np.linalg.norm(x_sum))


class Workload:
    """Base of the workloads; each also defines ``make_input``, ``request``,
    ``check`` and ``outputs`` (the arrays of an output, for the replay)."""

    name = ""
    sizes: dict = {}

    def __init__(self, fs, size: str = "full"):
        self.fs = fs
        self.cfg = self.sizes[size]
        self.spectra_s = 0.0

    def _operator(self, d: int, n: int):
        fs = self.fs
        ks = fs.KroneckerSum([fs.laplacian_1d(n)] * d)
        start = time.perf_counter()
        ks.spectra  # the eigendecomposition is lazy; pay it here, not in a request
        self.spectra_s += time.perf_counter() - start
        return ks, [fs.Grid1D(n)] * d

    def setup(self, seed: int) -> None:
        self.seed = seed

    def _oracle(self, c: np.ndarray):
        start = time.perf_counter()
        ref = self.fs.oracle_apply(self.ks, c, self.cfg["alpha"])
        return ref, time.perf_counter() - start

    def _sum_applied(self, c: np.ndarray, es) -> np.ndarray:
        """The exponential sum applied exactly in the eigenbasis to a dense tensor."""
        qs = [q for _, q in self.ks.spectra]
        filt = _khatri_rao_sum(es.weights, _decays(self.ks, es))
        return self.ks.lambda_min ** (-es.params.alpha) * _rotate(filt * _rotate(c, qs, transpose=True), qs)


class DenseSweep(Workload):
    """``poisson --format dense``: one right-hand side, four sum lengths."""

    name = "dense-sweep"
    sizes = {
        "full": dict(d=4, n=16, alpha=0.5, lengths=(25, 50, 100, 200)),
        "tiny": dict(d=3, n=6, alpha=0.5, lengths=(5, 10)),
    }

    def setup(self, seed):
        super().setup(seed)
        c, fs = self.cfg, self.fs
        self.ks, self.grids = self._operator(c["d"], c["n"])
        self.sums = [fs.build_expsum(fs.params_for_terms(c["alpha"], n)) for n in c["lengths"]]

    def make_input(self, k):
        rng = _rng(self.seed, k)
        return float(rng.uniform(1.0, 2.0)), rng.uniform(0.5, 1.5, self.cfg["d"])

    def request(self, inp):
        fs = self.fs
        a, b = inp
        spec = fs.RhsSpec(kind="custom", d=self.cfg["d"], fn=lambda *x: 1.0 / (a + sum(bi * xi for bi, xi in zip(b, x))))
        rhs = fs.sample_rhs(spec, self.grids)
        return rhs, [fs.solve_dense(self.ks, rhs, es) for es in self.sums]

    def outputs(self, out):
        rhs, solves = out
        return [rhs] + [x for x, _ in solves]

    def check(self, inp, out):
        rhs, solves = out
        ref, reference_s = self._oracle(rhs)
        ref_norm = float(np.linalg.norm(ref))
        ok, rel_error, rel_bound, detail = True, 0.0, 0.0, ""
        for es, (x, report) in zip(self.sums, solves):
            err = float(np.linalg.norm(x - ref))
            if not err <= report.error_bound:
                ok = False
                detail += f"N={report.n_terms}: error {err:.3e} > bound {report.error_bound:.3e}; "
            if not _consistent(x, self._sum_applied(rhs, es)):
                ok = False
                detail += f"N={report.n_terms}: differs from the sum applied in the eigenbasis; "
            rel_error = max(rel_error, err / ref_norm)
            rel_bound = max(rel_bound, report.error_bound / float(np.linalg.norm(x)))
        # A dense result has no format rank; the separation rank of the
        # applied operator, the number of exponential terms, stands in.
        max_rank = max(report.n_terms for _, report in solves)
        return Check(ok, rel_error, rel_bound, max_rank, reference_s, detail)


class TTHighD(Workload):
    """``tt-highd``: the train solve in eight dimensions.

    The dense oracle is out of reach (16**8 entries), so each request is
    checked on seeded sampled entries: against a longer certified sum for the
    certified gate, and against the solve's own sum for the consistency gate.
    Both are contracted with the input train mode by mode.
    """

    name = "tt-highd"
    sizes = {
        "full": dict(d=8, n=16, alpha=0.5, n_terms=200, round_tol=1e-12, ref_terms=400, entries=16),
        "tiny": dict(d=4, n=6, alpha=0.5, n_terms=20, round_tol=1e-12, ref_terms=60, entries=4),
    }

    def setup(self, seed):
        super().setup(seed)
        c, fs = self.cfg, self.fs
        self.ks, grids = self._operator(c["d"], c["n"])
        self.es = fs.build_expsum(fs.params_for_terms(c["alpha"], c["n_terms"]))
        rhs = fs.sample_rhs(fs.RhsSpec(kind="inv_linear", d=c["d"]), grids)
        self.rhs = rhs if isinstance(rhs, fs.TTTensor) else fs.tt_svd(rhs, tol=1e-10)

    @cached_property
    def _ref_sum(self):
        return self.fs.build_expsum(self.fs.params_for_terms(self.cfg["alpha"], self.cfg["ref_terms"]))

    @cached_property
    def _rhs_norm(self) -> float:
        return self.fs.tt_norm(self.rhs)

    def make_input(self, k):
        rng = _rng(self.seed, k)
        scale = float(rng.uniform(0.5, 2.0))
        cars = list(self.rhs.carriages)
        cars[0] = scale * cars[0]
        entries = rng.integers(0, self.cfg["n"], size=(self.cfg["entries"], self.cfg["d"]))
        return self.fs.TTTensor(tuple(cars)), scale, entries

    def request(self, inp):
        return self.fs.solve_tt(self.ks, inp[0], self.es, round_tol=self.cfg["round_tol"])

    def outputs(self, out):
        return list(out[0].carriages)

    def _sum_entry(self, c, es, idx) -> float:
        """Entry ``idx`` of the sum applied to the train ``c``.

        Row ``i`` of ``exp(-t_j A / lambda_min)`` is ``(Q[i] * decay_j) @ Q^T``;
        stacking the rows of all terms turns each mode extent into the term
        index, and the entry is the weighted sum over the diagonal.
        """
        y = c
        for mode, (i, (_, q), decay) in enumerate(zip(idx, self.ks.spectra, _decays(self.ks, es))):
            y = self.fs.tt_mode_product(y, mode, (decay.T * q[i]) @ q.T)
        cars = y.carriages
        m = cars[0]
        for car in cars[1:-1]:
            m = np.einsum("jr,rjs->js", m, car)
        vals = np.einsum("jr,rj->j", m, cars[-1])
        return self.ks.lambda_min ** (-es.params.alpha) * float(np.dot(es.weights, vals))

    def check(self, inp, out):
        c, scale, entries = inp
        x, report = out
        cnorm = scale * self._rhs_norm
        ref_bound = self.ks.lambda_min ** (-self.cfg["alpha"]) * self.fs.total_error_bound(self._ref_sum.params) * cnorm
        # each of the n_terms - 1 recompressions may move the result by round_tol * ||c||
        allowance = self.cfg["round_tol"] * cnorm * (self.es.n_terms - 1)
        ok, rel_error, detail = True, 0.0, ""
        for idx in entries:
            got = _tt_entry(x, idx)
            ref = self._sum_entry(c, self._ref_sum, idx)
            err = abs(got - ref)
            if not err <= report.error_bound + ref_bound:
                ok = False
                detail += f"entry {tuple(idx)}: error {err:.3e} > {report.error_bound + ref_bound:.3e}; "
            if not _consistent(got, self._sum_entry(c, self.es, idx), allowance):
                ok = False
                detail += f"entry {tuple(idx)}: differs from the sum applied exactly; "
            rel_error = max(rel_error, err / abs(ref))
        rel_bound = report.error_bound / self.fs.tt_norm(x)
        return Check(ok, rel_error, rel_bound, max(report.ranks), 0.0, detail)


def _tt_entry(x, idx) -> float:
    cars = x.carriages
    v = cars[0][idx[0]]
    for car, i in zip(cars[1:-1], idx[1:-1]):
        v = v @ car[:, i, :]
    return float(v @ cars[-1][:, idx[-1]])


class LowRank3D(Workload):
    """``poisson --format cp`` and ``--format tucker`` on a random rank-one right-hand side."""

    name = "lowrank-3d"
    sizes = {
        "full": dict(d=3, n=64, alpha=0.5, n_terms=200),
        "tiny": dict(d=3, n=8, alpha=0.5, n_terms=10),
    }

    def setup(self, seed):
        super().setup(seed)
        c, fs = self.cfg, self.fs
        self.ks, self.grids = self._operator(c["d"], c["n"])
        self.es = fs.build_expsum(fs.params_for_terms(c["alpha"], c["n_terms"]))

    def make_input(self, k):
        return int(_rng(self.seed, k).integers(0, 2**31))

    def request(self, rhs_seed):
        fs = self.fs
        rhs = fs.sample_rhs(fs.RhsSpec(kind="random_rank1", d=self.cfg["d"], seed=rhs_seed), self.grids)
        x_cp, rep_cp = fs.solve_cp(self.ks, rhs, self.es)
        norms = [float(np.linalg.norm(f)) for f in rhs.factors]
        tucker = fs.TuckerTensor(
            core=np.full((1,) * len(norms), math.prod(norms)),
            factors=tuple(f / s for f, s in zip(rhs.factors, norms)),
        )
        x_tk, rep_tk = fs.solve_tucker(self.ks, tucker, self.es)
        return rhs, ((x_cp.to_dense(), rep_cp), (x_tk.to_dense(), rep_tk))

    def outputs(self, out):
        return [x for x, _ in out[1]]

    def check(self, inp, out):
        rhs, results = out
        dense = _khatri_rao_sum(np.ones(1), rhs.factors)
        ref, reference_s = self._oracle(dense)
        ref_norm = float(np.linalg.norm(ref))
        x_sum = self._sum_applied(dense, self.es)
        ok, rel_error, rel_bound, detail = True, 0.0, 0.0, ""
        for fmt, (x, report) in zip(("cp", "tucker"), results):
            err = float(np.linalg.norm(x - ref))
            if not err <= report.error_bound:
                ok = False
                detail += f"{fmt}: error {err:.3e} > bound {report.error_bound:.3e}; "
            if not _consistent(x, x_sum):
                ok = False
                detail += f"{fmt}: differs from the sum applied in the eigenbasis; "
            rel_error = max(rel_error, err / ref_norm)
            rel_bound = max(rel_bound, report.error_bound / float(np.linalg.norm(x)))
        max_rank = max(max(report.ranks) for _, report in results)
        return Check(ok, rel_error, rel_bound, max_rank, reference_s, detail)


class ExpsumSweep(Workload):
    """``expsum-convergence``: every certified sum on the CLI's accuracy grid."""

    name = "expsum-sweep"
    sizes = {
        "full": dict(alphas=(0.25, 0.75), grid=np.linspace(2.5, 40.0, 120), max_terms=1500, points=100),
        "tiny": dict(alphas=(0.25, 0.75), grid=np.linspace(2.5, 40.0, 12), max_terms=60, points=20),
    }

    def make_input(self, k):
        return np.sort(10.0 ** _rng(self.seed, k).uniform(0.0, 6.0, self.cfg["points"]))

    def request(self, xi):
        fs = self.fs
        rows = []
        for alpha in self.cfg["alphas"]:
            for log_inv_eps in self.cfg["grid"]:
                params = fs.select_params(alpha, math.exp(-log_inv_eps))
                if params.n_terms > self.cfg["max_terms"]:
                    break
                es = fs.build_expsum(params)
                rows.append((es, fs.evaluate(es, xi), fs.total_error_bound(params)))
        return rows

    def outputs(self, out):
        return [np.array([b for _, _, b in out])] + [a for es, v, _ in out for a in (es.weights, es.exponents, v)]

    def check(self, xi, out):
        ok, rel_error, rel_bound, detail = True, 0.0, 0.0, ""
        for es, values, bound in out:
            alpha = es.params.alpha
            ref = xi ** (-alpha)
            err = np.abs(values - ref)
            if not np.all(err <= bound + ROUNDING_ALLOWANCE * ref):
                ok = False
                detail += f"alpha={alpha} N={es.n_terms}: error {err.max():.3e} > bound {bound:.3e}; "
            if not _consistent(values, np.exp(-np.outer(xi, es.exponents)) @ es.weights):
                ok = False
                detail += f"alpha={alpha} N={es.n_terms}: differs from the plain sum; "
            # relative to the sup of xi**-alpha over [1, inf), which is 1
            rel_error = max(rel_error, float(err.max()))
            rel_bound = max(rel_bound, bound)
        # The separation rank of a sum is its number of terms.
        return Check(ok, rel_error, rel_bound, max(es.n_terms for es, _, _ in out), 0.0, detail)


WORKLOADS = {w.name: w for w in (DenseSweep, TTHighD, LowRank3D, ExpsumSweep)}
