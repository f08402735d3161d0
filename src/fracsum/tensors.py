"""Dense, CP, Tucker and tensor-train tensors with rank-controlled arithmetic.

Dense tensors are plain ``numpy.ndarray`` objects.  A tensor is linearized
column-major throughout, the first index varying fastest.
:func:`multi_mode_product` is the one kernel for a matrix along every mode,
in every format.  A product along one mode passes identities for the
others; under this convention ``multi_mode_product(X, [A, I])`` is ``A @ X``
for a d = 2 tensor, and the product along mode i alone acts on the
linearized tensor as the Kronecker-structured matrix whose non-identity
factor sits in position i counted from the right.  ``_normed`` is the one
reader of a Frobenius norm, in every format; it hands a train back
left-orthogonal by the QR sweep of ``_left_orthogonal``, the only sweep a
train gets in a solve.

Formats:

* :class:`CPTensor` -- k rank-one terms, one ``n_i x k`` factor per mode.
* :class:`TuckerTensor` -- dense core times per-mode orthonormal factors.
* :class:`TTTensor` -- tensor train; boundary carriages are matrices, the
  inner ones order-3 arrays.  ``_as_cores`` and ``_from_cores`` are the
  only code that maps the boundary matrices to order-3 cores with unit
  boundary ranks and back; the kernels here read and write trains as cores.

Every train is rounded by the two sweeps of ``_sweep_round`` within a
Frobenius budget for the whole rounding, which only it splits into steps:
:func:`tt_round` rounds a train's own carriages, ``_cp_to_tt`` compresses a
CP tensor, and ``_tt_hadamard_round`` the entrywise product of two
left-orthogonal trains, whose carriages it never forms.  With a zero budget
only singular values below a step's noise floor are cut.  :func:`tt_svd`
factorizes a dense tensor.

``_sweep_round`` runs on one OpenBLAS thread (``_one_blas_thread``) and then
restores the process's count.  Its QRs and SVDs are at most about a
thousand rows by 128 columns, and OpenBLAS runs those 1.3 to 2 times slower
on two threads than on one; a train's rounding is then also bit-identical
whatever thread count the process runs with.  Every other kernel,
:func:`tt_svd`, :func:`hosvd`, :func:`cp_als` and the solver's rotations
included, keeps the process's count: its large products gain from more
threads.

Every dense path that could outgrow memory, here and in the solver, raises
:class:`MemoryCapError` before it forms more than ``memory_cap`` entries.
:func:`tt_round`, :func:`tt_svd`, :func:`hosvd` and :func:`cp_als` reject a
target with non-finite entries with a one-line ``ValueError``.
"""

from __future__ import annotations

import ctypes
import glob
import math
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import cache, reduce

import numpy as np

__all__ = [
    "DEFAULT_MEMORY_CAP",
    "CPTensor",
    "MemoryCapError",
    "TTTensor",
    "TuckerTensor",
    "cp_als",
    "hosvd",
    "multi_mode_product",
    "tt_mode_product",
    "tt_norm",
    "tt_round",
    "tt_svd",
    "unfold",
]

_ORTHO_TOL = 1e-12
# Share of a rounded entrywise product's error budget that the right-part
# cuts of _tt_hadamard_round may spend; the left-to-right truncation gets
# the rest.  A half share raised the tt-highd result ranks from 28 to 30.
_CUT_SHARE = 0.05
DEFAULT_MEMORY_CAP = 2**27  # guard of every dense path, in tensor entries


class MemoryCapError(RuntimeError):
    """Raised when a dense code path would allocate too many entries."""


def _check_memory(entries: int, memory_cap: int, path: str) -> None:
    """Raise :class:`MemoryCapError` when ``path`` would need more than ``memory_cap`` entries."""
    if entries > memory_cap:
        raise MemoryCapError(f"{path} needs {entries} entries, cap is {memory_cap}")


def _check_nonnegative(value: float, name: str) -> None:
    """Raise a one-line ``ValueError`` unless ``value`` is finite and nonnegative (NaN fails too)."""
    if not 0.0 <= value < math.inf:
        raise ValueError(f"{name} must be finite and nonnegative, got {value}")


def _check_finite(arrays, name: str) -> None:
    """Raise a one-line ``ValueError`` unless every entry of ``arrays`` is finite."""
    if not all(np.all(np.isfinite(a)) for a in arrays):
        raise ValueError(f"{name} has non-finite entries")


# (get, set) symbol pairs of the thread count, in the order they are looked for
_OPENBLAS_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)
_blas_lock = threading.Lock()
_blas_depth = 0  # open _one_blas_thread blocks, over all Python threads
_blas_saved = 0  # the thread count the outermost block restores


@cache
def _openblas():
    """``(get, set)`` of the thread count of the OpenBLAS that numpy bundles, or None where none is found.

    numpy's wheels ship it in ``numpy.libs`` (Linux, Windows) or
    ``numpy/.dylibs`` (macOS); a numpy built against another BLAS has none.
    """
    root = os.path.dirname(np.__file__)
    paths = glob.glob(os.path.join(root, os.pardir, "numpy.libs", "*openblas*"))
    for path in sorted(paths + glob.glob(os.path.join(root, ".dylibs", "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _OPENBLAS_SYMBOLS:
            get, set_ = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


@contextmanager
def _one_blas_thread():
    """Run the block on one OpenBLAS thread and restore the previous count after it.

    Blocks may nest and run in several Python threads at once: the first to
    open saves the count and the last to close restores it, under one lock.
    The count is the process's, so while any block is open, BLAS calls of
    other Python threads run on one thread too.  Where numpy bundles no
    OpenBLAS, the block runs unchanged.
    """
    global _blas_depth, _blas_saved
    blas = _openblas()
    if blas is None:
        yield
        return
    get, set_ = blas
    with _blas_lock:
        if _blas_depth == 0:
            _blas_saved = get()
            set_(1)
        _blas_depth += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_depth -= 1
            if _blas_depth == 0:
                set_(_blas_saved)


# ---------------------------------------------------------------------------
# dense tensors
# ---------------------------------------------------------------------------

def unfold(x: np.ndarray, mode: int) -> np.ndarray:
    """Mode-``mode`` unfolding of a dense tensor.

    Row ``j`` collects all entries whose index along ``mode`` equals ``j``;
    columns are ordered by the column-major linearization of the remaining
    indices.
    """
    x = np.asarray(x)
    if not 0 <= mode < x.ndim:
        raise IndexError(f"mode {mode} out of range for a {x.ndim}-way tensor")
    return np.moveaxis(x, mode, 0).reshape(x.shape[mode], -1, order="F")


def multi_mode_product(x, mats):
    """``x x_1 mats[0] ... x_d mats[d-1]`` in any format: exactly one matrix per mode.

    Dense: each step contracts the leading axis by one matrix product on a
    reshaped view and appends the result as the last axis, so after ``d``
    steps the modes are back in order.  CP and Tucker tensors multiply their
    factors (Tucker factors must stay orthonormal), trains multiply each
    carriage along its mode index in one pass, as :func:`tt_mode_product`
    does for one mode.
    """
    if not isinstance(x, (CPTensor, TuckerTensor, TTTensor)):
        x = np.asarray(x)
    mats = [np.asarray(a) for a in mats]
    if len(mats) != len(x.shape):
        raise ValueError(f"need one matrix per mode: got {len(mats)} for a {len(x.shape)}-way tensor")
    for i, (a, n) in enumerate(zip(mats, x.shape)):
        if a.ndim != 2 or a.shape[1] != n:
            raise ValueError(f"matrix of shape {a.shape} does not match mode {i} of extent {n}")
    if isinstance(x, (CPTensor, TuckerTensor)):
        return replace(x, factors=tuple(a @ f for a, f in zip(mats, x.factors)))
    if isinstance(x, TTTensor):
        return _from_cores([np.einsum("rns,mn->rms", c, a) for c, a in zip(_as_cores(x), mats)])
    for a in mats:
        x = (x.reshape(x.shape[0], -1).T @ a.T).reshape(x.shape[1:] + (a.shape[0],))
    return x


def _normed(x):
    """``(x', ||x||_F)``: the same tensor in the form its norm is read from, and that norm.

    Dense, CP (Gram identity) and Tucker (core) tensors come back as they
    are; a train comes back left-orthogonal by :func:`_left_orthogonal`, its
    last carriage carrying the norm.
    """
    if isinstance(x, CPTensor):
        return x, float(np.sqrt(max(np.sum(_gram_product([f.T @ f for f in x.factors])), 0.0)))
    if isinstance(x, TuckerTensor):
        return x, float(np.linalg.norm(x.core))
    if isinstance(x, TTTensor):
        cores = _left_orthogonal(_as_cores(x))
        return _from_cores(cores), float(np.linalg.norm(cores[-1]))
    return x, float(np.linalg.norm(x))


# ---------------------------------------------------------------------------
# CP format
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CPTensor:
    """Sum of rank-one terms; ``factors[i]`` has one column per term."""

    factors: tuple

    def __post_init__(self):
        factors = tuple(np.asarray(f, dtype=float) for f in self.factors)
        object.__setattr__(self, "factors", factors)
        if not factors:
            raise ValueError("CPTensor needs at least one factor")
        if any(f.ndim != 2 for f in factors):
            raise ValueError("CP factors must be matrices")
        k = factors[0].shape[1]
        if any(f.shape[1] != k for f in factors):
            raise ValueError("all CP factors must share the column count")

    @property
    def rank(self) -> int:
        return self.factors[0].shape[1]

    @property
    def shape(self) -> tuple:
        return tuple(f.shape[0] for f in self.factors)

    @classmethod
    def from_rank1(cls, vectors) -> "CPTensor":
        return cls(tuple(np.asarray(v, dtype=float).reshape(-1, 1) for v in vectors))

    def to_dense(self, memory_cap: int = DEFAULT_MEMORY_CAP) -> np.ndarray:
        """Densify with one matrix product.

        The Khatri-Rao products of the leading ``h = d // 2`` and the trailing
        modes, each over its modes in reverse so that its rows run in C order,
        meet in one GEMM; no ``prod(n) x rank`` array is formed.  Raises
        :class:`MemoryCapError` first when the result or an operand,
        ``prod(n[:h]) x rank`` or ``prod(n[h:]) x rank``, has more than
        ``memory_cap`` entries.
        """
        h = len(self.factors) // 2
        n, k = self.shape, self.rank
        _check_memory(max(math.prod(n), math.prod(n[:h]) * k, math.prod(n[h:]) * k), memory_cap, "CP densification")
        lead = _khatri_rao(self.factors[:h][::-1]) if h else np.ones((1, self.rank))
        return (lead @ _khatri_rao(self.factors[h:][::-1]).T).reshape(self.shape)


def _khatri_rao(mats) -> np.ndarray:
    """Column-wise Kronecker product, first matrix's index fastest."""
    out = mats[0]
    for m in mats[1:]:
        # C order over (m's index, out's index) is out's index fastest, as a view
        out = (m[:, None, :] * out[None, :, :]).reshape(-1, out.shape[1])
    return out


# cp_als: sweeps per run, stopping tolerance relative to ||x||, and runs
_ALS_MAX_ITERS, _ALS_TOL, _ALS_RESTARTS = 100, 1e-12, 5


def cp_als(x: np.ndarray, rank: int, rng=None, init: CPTensor | None = None) -> CPTensor:
    """Fit a CP approximation by alternating least squares.

    Runs ``_ALS_RESTARTS`` (5) independent sweeps (the first seeded with
    ``init`` when given, the rest with random unit-normal factors) and keeps
    the fit closest to ``x``, measured on the densified fit.  Each mode
    update solves regularized normal equations (ridge 1e-12), so a
    rank-deficient iterate cannot abort the sweep, and the fit error is
    nonincreasing over the sweeps of one run up to that regularization.  A
    run stops when the change of its fit error, read off the Gram identity,
    drops below ``_ALS_TOL*||x||`` (1e-12) or after ``_ALS_MAX_ITERS`` (100)
    sweeps.

    Parameters
    ----------
    x : ndarray
        Dense target tensor.
    rank : int
        Requested number of rank-one terms (>= 1).
    rng : numpy Generator or seed, optional
        Source of the random restarts; fixed seeds give reproducible fits.
    init : CPTensor, optional
        Warm start used for the first restart.
    """
    x = np.asarray(x, dtype=float)
    _check_finite([x], "x")
    if rank < 1:
        raise ValueError(f"rank must be positive, got {rank}")
    rng = np.random.default_rng(rng)
    d = x.ndim
    norm_x = np.linalg.norm(x)
    unfoldings = [unfold(x, i) for i in range(d)]

    best, best_err = None, np.inf
    for run in range(_ALS_RESTARTS):
        if run == 0 and init is not None:
            if init.shape != x.shape or init.rank != rank:
                raise ValueError("init must match the target shape and requested rank")
            factors = [f.copy() for f in init.factors]
        else:
            factors = [_normalized_columns(rng.standard_normal((n, rank))) for n in x.shape]
        grams = [f.T @ f for f in factors]

        prev_err = np.inf
        for _ in range(_ALS_MAX_ITERS):
            for i in range(d):
                mttkrp = unfoldings[i] @ _khatri_rao([factors[j] for j in range(d) if j != i])
                gram = _gram_product([grams[j] for j in range(d) if j != i])
                factors[i] = np.linalg.solve(gram + 1e-12 * np.eye(rank), mttkrp.T).T
                grams[i] = factors[i].T @ factors[i]
            # fit via the Gram identity: ||x - T||^2 = ||x||^2 - 2<T,x> + ||T||^2;
            # it cancels near an exact fit, so it only decides when to stop
            inner = float(np.sum(mttkrp * factors[d - 1]))
            norm_t_sq = float(np.sum(_gram_product(grams)))
            err = math.sqrt(max(norm_x**2 - 2.0 * inner + norm_t_sq, 0.0))
            if prev_err - err <= _ALS_TOL * max(norm_x, 1e-300):
                break
            prev_err = err
        fit = CPTensor(tuple(factors))
        err = np.linalg.norm(x - fit.to_dense())
        if err < best_err:
            best, best_err = fit, err
    return best


def _gram_product(grams) -> np.ndarray:
    """The entrywise product of the factor Grams ``f.T @ f``, in order: the Gram of their Khatri-Rao product."""
    return reduce(np.multiply, grams)


def _normalized_columns(m: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(m, axis=0)
    norms[norms == 0.0] = 1.0
    return m / norms


# ---------------------------------------------------------------------------
# Tucker format
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TuckerTensor:
    """Dense core contracted with one orthonormal factor per mode."""

    core: np.ndarray
    factors: tuple

    def __post_init__(self):
        core = np.asarray(self.core, dtype=float)
        factors = tuple(np.asarray(f, dtype=float) for f in self.factors)
        object.__setattr__(self, "core", core)
        object.__setattr__(self, "factors", factors)
        if core.ndim != len(factors):
            raise ValueError("need one factor per core mode")
        for i, f in enumerate(factors):
            if f.ndim != 2 or f.shape[1] != core.shape[i]:
                raise ValueError(f"factor {i} of shape {f.shape} does not match core extent {core.shape[i]}")
            if f.shape[1] > f.shape[0]:
                raise ValueError(f"factor {i} has more columns than rows")
            gram = f.T @ f
            # written so that a NaN defect fails too
            if not np.max(np.abs(gram - np.eye(f.shape[1]))) <= _ORTHO_TOL:
                raise ValueError(f"factor {i} columns are not orthonormal")

    @property
    def ranks(self) -> tuple:
        return self.core.shape

    @property
    def shape(self) -> tuple:
        return tuple(f.shape[0] for f in self.factors)

    def to_dense(self, memory_cap: int = DEFAULT_MEMORY_CAP) -> np.ndarray:
        """The dense tensor; raises :class:`MemoryCapError` first when it has more than ``memory_cap`` entries."""
        _check_memory(math.prod(self.shape), memory_cap, "Tucker densification")
        return multi_mode_product(self.core, self.factors)


def hosvd(x: np.ndarray, ranks=None, tol: float | None = None) -> TuckerTensor:
    """Higher-order SVD.

    Per mode, the factor holds the leading left singular vectors of the
    unfolding; the core is the tensor contracted with the transposed factors.
    Exactly one of ``ranks`` (one positive cap per mode, or one for all,
    clipped to the mode extents) and ``tol`` must be given; in tolerance
    mode each mode keeps the smallest rank whose discarded singular values
    have norm at most ``tol*||x||/sqrt(d)`` (see :func:`_truncation_rank`),
    so the total reconstruction error is at most ``tol*||x||``.  The squared
    reconstruction error never exceeds the sum of squared discarded singular
    values over all modes.
    """
    x = np.asarray(x, dtype=float)
    _check_finite([x], "x")
    if (ranks is None) == (tol is None):
        raise ValueError("pass exactly one of ranks and tol")
    if tol is not None:
        _check_nonnegative(tol, "tol")
    d = x.ndim
    if ranks is not None:
        ranks = (int(ranks),) * d if np.isscalar(ranks) else tuple(int(r) for r in ranks)
        if len(ranks) != d or any(r < 1 for r in ranks):
            raise ValueError(f"ranks must be {d} positive integers, got {ranks}")
    factors = []
    for i in range(d):
        u, s, _ = np.linalg.svd(unfold(x, i), full_matrices=False)
        if ranks is not None:
            r = min(ranks[i], x.shape[i], u.shape[1])
        else:
            r = _truncation_rank(s, tol * np.linalg.norm(x) / math.sqrt(d))
        factors.append(u[:, :r])
    core = multi_mode_product(x, [f.T for f in factors])
    return TuckerTensor(core=core, factors=tuple(factors))


# ---------------------------------------------------------------------------
# tensor-train format
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TTTensor:
    """Tensor train with matrix boundary carriages.

    ``carriages[0]`` is ``n_1 x r_1``, the inner carriage ``j`` is
    ``r_j x n_{j+1} x r_{j+1}``, and the last is ``r_{d-1} x n_d``; adjacent
    rank extents must agree.  Apart from this check, only ``_as_cores`` and
    ``_from_cores`` know that layout: every member and kernel works on the
    cores they give, ``1 x n_1 x r_1`` to ``r_{d-1} x n_d x 1``.
    """

    carriages: tuple

    def __post_init__(self):
        cars = tuple(np.asarray(c, dtype=float) for c in self.carriages)
        object.__setattr__(self, "carriages", cars)
        if len(cars) < 2:
            raise ValueError("a tensor train needs at least two carriages")
        if cars[0].ndim != 2 or cars[-1].ndim != 2:
            raise ValueError("boundary carriages must be matrices")
        r = cars[0].shape[1]
        for j, c in enumerate(cars[1:-1], start=1):
            if c.ndim != 3:
                raise ValueError(f"inner carriage {j} must be a 3-way array")
            if c.shape[0] != r:
                raise ValueError(f"rank mismatch between carriages {j - 1} and {j}")
            r = c.shape[2]
        if cars[-1].shape[0] != r:
            raise ValueError("rank mismatch at the last carriage")

    @property
    def ndim(self) -> int:
        return len(self.carriages)

    @property
    def shape(self) -> tuple:
        return tuple(c.shape[1] for c in _as_cores(self))

    @property
    def ranks(self) -> tuple:
        return tuple(c.shape[2] for c in _as_cores(self)[:-1])

    def to_dense(self, memory_cap: int = DEFAULT_MEMORY_CAP) -> np.ndarray:
        """The dense tensor; raises :class:`MemoryCapError` first when it has more than ``memory_cap`` entries."""
        _check_memory(math.prod(self.shape), memory_cap, "train densification")
        # Row-major pairing throughout: the accumulated rows enumerate the
        # leading indices with the most recent one fastest, which is exactly
        # the C-order layout of the final array.
        m = np.ones((1, 1))
        for c in _as_cores(self):
            r0, n, r1 = c.shape
            m = (m @ c.reshape(r0, n * r1)).reshape(-1, r1)
        return m.reshape(self.shape)


def _as_cores(x: TTTensor) -> list:
    """View all carriages as order-3 arrays with unit boundary ranks."""
    cars = list(x.carriages)
    cars[0] = cars[0].reshape(1, *cars[0].shape)
    cars[-1] = cars[-1].reshape(*cars[-1].shape, 1)
    return cars


def _from_cores(cores) -> TTTensor:
    """The train of order-3 ``cores`` with unit boundary ranks; the inverse of :func:`_as_cores`."""
    first = cores[0].reshape(cores[0].shape[1], cores[0].shape[2])
    last = cores[-1].reshape(cores[-1].shape[0], cores[-1].shape[1])
    return TTTensor(tuple([first] + list(cores[1:-1]) + [last]))


def tt_svd(x: np.ndarray, tol: float = 0.0, max_rank: int | None = None) -> TTTensor:
    """Convert a dense tensor to a train by a left-to-right SVD sweep.

    The sweep factorizes the sequential matricizations that group the first
    ``i`` indices against the rest.  With a positive ``tol`` each step drops
    trailing singular values of total norm at most ``tol*||x||/sqrt(d-1)``,
    which keeps the overall relative reconstruction error within
    ``tol`` (and a fortiori within ``tol*sqrt(d-1)``); ``max_rank``, when
    given, is a positive cap on every rank on top of that.
    """
    x = np.asarray(x, dtype=float)
    _check_finite([x], "x")
    _check_nonnegative(tol, "tol")
    d = x.ndim
    if d < 2:
        raise ValueError("tensor trains need at least two modes")
    if max_rank is not None and max_rank < 1:
        raise ValueError(f"max_rank must be positive, got {max_rank}")
    shape = x.shape
    delta = tol * np.linalg.norm(x) / math.sqrt(d - 1)
    cores = []
    m = x.reshape(shape[0], -1, order="F")
    r_prev = 1
    for j in range(d - 1):
        u, s, vt = np.linalg.svd(m, full_matrices=False)
        r = _truncation_rank(s, delta)
        if max_rank is not None:
            r = min(r, max_rank)
        # rows of u enumerate (previous rank, mode index) with the rank fastest
        cores.append(u[:, :r].reshape((r_prev, shape[j], r), order="F"))
        m = s[:r, None] * vt[:r]
        if j < d - 2:
            m = m.reshape(r * shape[j + 1], -1, order="F")
        r_prev = r
    cores.append(m.reshape(r_prev, shape[d - 1], 1))
    return _from_cores(cores)


def _truncation_rank(s: np.ndarray, delta: float) -> int:
    """Smallest kept rank whose discarded tail has norm at most delta."""
    if len(s) == 0:
        return 1
    if delta <= 0.0:
        # drop exact-zero noise only
        cutoff = len(s) * np.finfo(float).eps * s[0]
        r = int(np.sum(s > cutoff))
        return max(r, 1)
    tails = np.sqrt(np.cumsum(s[::-1] ** 2))[::-1]  # tails[r] = ||s[r:]||
    r = len(s)
    while r > 1 and tails[r - 1] <= delta:
        r -= 1
    return r


def tt_mode_product(x: TTTensor, mode: int, a: np.ndarray) -> TTTensor:
    """Apply a matrix along one mode; only that carriage changes, ranks do not."""
    a = np.asarray(a, dtype=float)
    if not 0 <= mode < x.ndim:
        raise IndexError(f"mode {mode} out of range")
    if a.ndim != 2 or a.shape[1] != x.shape[mode]:
        raise ValueError(f"matrix of shape {a.shape} does not match mode {mode} of extent {x.shape[mode]}")
    cores = _as_cores(x)
    cores[mode] = np.einsum("rns,mn->rms", cores[mode], a)
    return _from_cores(cores)


def tt_norm(x: TTTensor) -> float:
    """Frobenius norm via the left-to-right QR sweep of :func:`_left_orthogonal` (stable for any ranks), as :func:`_normed` reads it."""
    return _normed(x)[1]


def _left_orthogonal(cores) -> list:
    """The same train with every core but the last left-orthogonal, by a left-to-right QR sweep.

    Core ``k < d-1`` of the result, unfolded with its left rank and mode
    index as rows, has orthonormal columns, so every left part (carriages
    ``0..k`` with the mode indices as rows) has orthonormal columns too.
    The last core carries the R factors, so its norm is the train's.
    """
    r = np.ones((1, 1))
    out = []
    for core in cores[:-1]:
        m = np.tensordot(r, core, axes=([1], [0]))
        q, r = np.linalg.qr(m.reshape(-1, m.shape[2]))
        out.append(q.reshape(m.shape[0], m.shape[1], -1))
    out.append(np.tensordot(r, cores[-1], axes=([1], [0])))
    return out


def tt_round(x: TTTensor, tol: float) -> TTTensor:
    """Recompress a train so that its relative error stays within ``tol``; ranks never increase.

    The two sweeps of :func:`_sweep_round` run over the train's own
    carriages, one QR per carriage, within the budget ``tol*||x||``.
    ``||x||`` is read off the first truncation step, whose singular values
    are those of the first unfolding, so no separate norm sweep runs.  With
    ``tol`` zero only singular values below the noise floor
    ``len(s)*eps*s[0]`` of a step are cut.
    """
    _check_finite(x.carriages, "x")
    _check_nonnegative(tol, "tol")
    cores = _as_cores(x)

    def left(k, m, rows):
        return np.tensordot(m, cores[k][:, rows], axes=1)

    def right(k, m, rows):
        return np.tensordot(m, cores[k][:, rows], axes=([1], [2])).transpose(0, 2, 1)

    return _sweep_round(left, right, x.shape, tol, relative=True)


@_one_blas_thread()
def _sweep_round(
    left, right, shape, budget: float, block: int | None = None, relative: bool = False, cut: float = 0.0
) -> TTTensor:
    """Round a train known only through its carriages' contractions within ``budget + cut``.

    ``left(k, m, rows)`` contracts the left rank of carriage ``k`` (an
    ``R x n_k x R'`` array, restricted to the mode indices ``rows``) with the
    columns of ``m``, giving ``(len(m), len(rows), R')``; ``right(k, m, rows)``
    contracts its right rank instead, giving ``(len(m), len(rows), R)``.  The
    train is closed by ones: ``m`` is ``[[1]]`` at carriage 0's left rank and
    the last one's right rank (broadcast where that rank exceeds one), and
    the last carriage is summed over its right rank.  ``block`` mode indices
    are contracted at a time, all of a carriage's when it is None.

    Right to left, only the triangular factor ``T_k`` of each right part
    (carriages ``k..d-1``, its left rank as columns) is kept:
    ``T_k`` is the R factor of the right contraction of ``T_{k+1}``,
    accumulated block by block as ``qr(vstack([T_k, block]))``, so by one QR
    per carriage when ``block`` is None.  Left to right, ``M_k`` is the
    carry ``Z_k`` (``[[1]]`` for ``k = 0``) contracted with carriage ``k``.
    The right part is ``T_{k+1}^T`` times orthonormal rows, so the singular
    values of ``M_k T_{k+1}^T`` are exactly those of the unfolding against
    the basis kept so far; truncating them at ``delta = budget/sqrt(d-1)``
    gives carriage ``k`` as ``U`` and the next carry ``U^T M_k``.  The
    errors of the ``d-1`` steps are mutually orthogonal, so the result is
    within ``budget`` of the train in the Frobenius norm.  With ``relative``
    the budget is ``budget*||x||`` instead: the first step's singular values
    are those of the first unfolding, so their norm is ``||x||`` exactly.

    A positive ``cut`` also narrows each ``T_k`` as it is formed: with
    ``T_k = U S V^T`` it becomes ``S_p V_p^T`` for the smallest ``p`` whose
    discarded singular values have norm at most ``cut/(d-1)``.  This
    projects the right part onto ``p`` orthonormal directions, so ``T_k^T``
    times orthonormal rows is still a right part, that of the cut train, and
    the right sweep goes on from ``T_k`` at width ``p``.  A cut moves the
    train by at most ``cut/(d-1)`` times the spectral norm of the left part
    it meets (carriages ``0..k-1``, mode indices as rows), so when every
    left part has spectral norm at most 1 the ``d-1`` cuts move it by at
    most ``cut``.  Each left-to-right step is then within ``delta`` of the
    cut train; the parts the steps discard of the train itself are still
    mutually orthogonal and differ from those by orthogonal shares of the
    cuts' changes, so the result is within ``budget + cut``.  The caller
    supplies the contractive left parts.  With ``cut`` zero no SVD runs, so
    :func:`tt_round` and ``_cp_to_tt`` run as without it.

    With a zero budget a step cuts only singular values below its noise
    floor ``len(s)*eps*s[0]`` (see :func:`_truncation_rank`); that cut, like
    any other floating-point rounding, is not counted in the bound above.

    The whole rounding, callbacks included, runs on one OpenBLAS thread, so
    its result does not depend on the process's thread count.
    """
    d = len(shape)
    delta, cut = budget / math.sqrt(d - 1), cut / (d - 1)

    def blocks(k):
        step = block or shape[k]
        return [slice(lo, lo + step) for lo in range(0, shape[k], step)]

    z = one = np.ones((1, 1))
    ts = [None] * d + [one]  # ts[k]: the (cut) R factor of the right part from carriage k on
    for k in range(d - 1, 0, -1):
        for rows in blocks(k):
            w = right(k, ts[k + 1], rows)
            w = w.reshape(-1, w.shape[2])
            ts[k] = np.linalg.qr(w if ts[k] is None else np.vstack([ts[k], w]), mode="r")
        if cut > 0.0:
            _, s, vt = np.linalg.svd(ts[k], full_matrices=False)
            p = _truncation_rank(s, cut)
            ts[k] = s[:p, None] * vt[:p]

    def carry(k, z):
        return np.concatenate([left(k, z, rows) for rows in blocks(k)], axis=1)

    cores = []
    for k in range(d - 1):
        m = carry(k, z)
        m = m.reshape(-1, m.shape[2])
        u, s, _ = np.linalg.svd(m @ ts[k + 1].T, full_matrices=False)
        if relative and k == 0:
            delta *= float(np.linalg.norm(s))
        # a copy, so that the discarded columns are freed at once
        u = u[:, :_truncation_rank(s, delta)].copy()
        cores.append(u.reshape(len(z), shape[k], -1))
        z = u.T @ m
    cores.append(carry(d - 1, z).sum(axis=2, keepdims=True))
    return _from_cores(cores)


def _cp_to_tt(factors, budget: float) -> TTTensor:
    """The CP tensor ``sum_j outer_i factors[i][:, j]`` as a train within ``budget`` of it in the Frobenius norm.

    As a train it has diagonal ``N x n_i x N`` carriages, closed by ones on
    both sides; they are never formed, because contracting one with a matrix
    only scales the matrix's columns by a row of the mode's factor.  The
    budget is spent as :func:`_sweep_round` says.
    """

    def scale(k, m, rows):
        return m[:, None, :] * factors[k][None, rows]

    shape = [len(f) for f in factors]
    return _sweep_round(scale, scale, shape, budget, block=2)


def _kron_contract(z: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``z`` contracted with the face-split carriage of ``a`` and ``b`` without forming it.

    ``a`` is ``ra x n x sa`` and ``b`` is ``rb x n x sb``; the carriage of
    their entrywise product is ``ra*rb x n x sa*sb``, ``a``'s ranks the
    slower.  ``z`` has ``ra*rb`` columns; the result is
    ``(len(z), n, sa*sb)``.  One GEMM contracts ``b``'s rank and one matrix
    product per mode index contracts ``a``'s, ``O(len(z)*n*ra*sb*(rb + sa))``
    operations instead of the ``O(len(z)*n*ra*rb*sa*sb)`` of the formed
    carriage.  Passed both carriages with their rank axes swapped, it
    contracts the right ranks.
    """
    (ra, n, sa), (rb, _, sb) = a.shape, b.shape
    q = len(z)
    # rows (mode index, sb), columns (q, ra)
    y = b.transpose(1, 2, 0).reshape(n * sb, rb) @ z.reshape(q * ra, rb).T
    y = np.matmul(y.reshape(n, sb * q, ra), a.transpose(1, 0, 2))
    return y.reshape(n, sb, q, sa).transpose(2, 0, 3, 1).reshape(q, n, sa * sb)


def _tt_hadamard_round(a: TTTensor, b: TTTensor, tol: float) -> TTTensor:
    """The entrywise product ``a * b`` of two left-orthogonal trains, rounded within ``tol*||b||`` in the Frobenius norm.

    The product's carriages are the face-split products of the inputs'
    carriages, with ranks ``ranks(a) * ranks(b)``.  They are never formed:
    the two sweeps of :func:`_sweep_round` meet each one through
    :func:`_kron_contract`, on its left rank or its right, one carriage at a
    time, so each right part's triangular factor takes one QR per carriage.
    Each rank of the result is at most the product of the inputs' ranks.

    Both inputs must be left-orthogonal, cores ``0..d-2`` unfolded with
    their left rank and mode index as rows having orthonormal columns, as
    the trains :func:`_sweep_round` and :func:`_normed` return are, also
    after an orthogonal rotation of their mode indices; neither is checked
    or swept here.  Then ``||b||`` is the norm of ``b``'s last core, and a
    left part of the product, rows of the Kronecker product of the inputs'
    left parts, has spectral norm at most 1, so the right-part cuts of
    :func:`_sweep_round` apply: they spend ``_CUT_SHARE`` of the budget
    ``tol*||b||`` and the left-to-right steps the rest.  With ``tol`` zero
    no cut is made.
    """
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    ga, gb = _as_cores(a), _as_cores(b)

    def left(k, m, rows):
        return _kron_contract(m, ga[k][:, rows], gb[k][:, rows])

    def right(k, m, rows):
        return _kron_contract(m, ga[k][:, rows].transpose(2, 1, 0), gb[k][:, rows].transpose(2, 1, 0))

    budget = tol * float(np.linalg.norm(gb[-1]))
    return _sweep_round(left, right, a.shape, (1.0 - _CUT_SHARE) * budget, cut=_CUT_SHARE * budget)
