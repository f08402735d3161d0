"""Apply fractional inverse powers of Kronecker sums to tensors.

A Kronecker sum of symmetric positive definite factors ``A_1 .. A_d`` acts on
a tensor ``X``, linearized column-major, as the sum of the per-mode products
``X x_i A_i``.  Its inverse fractional power is applied through the
exponential sum of :mod:`fracsum.expsum`: after scaling the operator by its
smallest eigenvalue so that the spectrum starts at 1,

    X_N = lambda_min**(-alpha) * sum_j w_j * (C x_1 E_1j ... x_d E_dj),

where ``E_ij = exp(-t_j * A_i / lambda_min)``.  Every ``E_ij`` is diagonal in
the eigenbasis ``Q_i`` of ``A_i``, so every path, the exact reference
included, runs the same three steps, written once in ``_in_eigenbasis``:
rotate into the joint eigenbasis ``Q = Q_1 (x) ... (x) Q_d``, multiply
entrywise by a diagonal filter on the lattice of eigenvalue sums, and rotate
back.  Both rotations are :func:`fracsum.tensors.multi_mode_product`, which
takes every format.  For the sum the filter is the rank-N CP tensor

    F = lambda_min**(-alpha) * sum_j w_j * outer_i exp(-t_j * Lambda_i / lambda_min),

a :class:`fracsum.tensors.CPTensor` whose mode-0 factor carries the scaled
weights ``lambda_min**(-alpha) * w_j``; the exact reference
:func:`oracle_apply` uses ``F = (sum_i Lambda_i)**(-alpha)``.  ``F`` depends
only on the operator and the sum, so each operator keeps its filters in a
:class:`_FilterStore`: the factors of ``F`` are built the first time the
operator meets the sum, and each form derived from them the first time a
path asks for it.  A path supplies only its entrywise product with ``F``:
dense tensors multiply ``F`` densified, and so does a Tucker core when
``N * r_i >= n_i`` in every mode; other CP and Tucker factors are scaled term
by term along their mode index by the factors of ``F`` (Tucker orthogonalizes
by QR only the modes where ``n_i > N * r_i`` and sums the terms of its core by
``tensors._term_sum``, the kernel that also densifies ``F``); tensor trains
are multiplied by ``F`` written as a compressed train for a budget.

Around those steps every solve path runs one protocol, written once in
``_solve``, and adds only its own input checks and its entrywise step.  The
clock starts after the eigendecompositions, which run once per operator, so
``wall_time`` excludes them and includes everything in the steps, such as
building a filter the first time the operator meets that sum and form.
``error_bound`` is
``lambda_min**(-alpha) * (certified_bound(es) + sqrt(tiny) * sum(w)) * ||c||_F``
plus a path's allowance times ``||c||_F`` (only the train path has one, for
recompression); the ``sqrt(tiny)`` term covers the filter entries that
``_sum_filter`` drops.  It takes the eigendecompositions as exact: their
backward error, ``O(u*||A_i||)`` per factor for the unit roundoff ``u``, is
outside the bound.
Non-finite input fails with a ``ValueError``: factors at construction, and a
right-hand side whose norm is not finite at the start of a solve.
The solve paths, the oracle and the filter store read one memory cap, the
operator's ``KroneckerSum.memory_cap``; :mod:`fracsum.tensors` says what it bounds.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass, field
from functools import cached_property, reduce

import numpy as np

from .expsum import ExpSum, certified_bound
from .tensors import (
    DEFAULT_MEMORY_CAP,
    CPTensor,
    MemoryCapError,
    TTTensor,
    TuckerTensor,
    _check_finite,
    _check_memory,
    _check_nonnegative,
    _cp_to_tt,
    _normed,
    _term_sum,
    _tt_hadamard_round,
    multi_mode_product,
    tt_round,  # unused here; the benchmark's tracer test reads fracsum.solver.tt_round
)

__all__ = [
    "DEFAULT_MEMORY_CAP",
    "KroneckerSum",
    "MemoryCapError",
    "SolveReport",
    "oracle_apply",
    "solve_cp",
    "solve_dense",
    "solve_tt",
    "solve_tucker",
]

class KroneckerSum:
    """Ordered symmetric positive definite factors of a Kronecker sum.

    The eigendecompositions depend only on the operator: they are computed
    on first use, shared by every solve, and positive definiteness is checked
    at that point.  Finite entries and symmetry are checked eagerly at
    construction.  The factors, eigenvalues and eigenvectors are read-only
    copies, so an operator never changes after it is built, nor does a
    pickled or deep copy.  The filters of the sums applied to it are kept in
    its private :class:`_FilterStore`.  ``memory_cap``, at least 1 entry, is
    the one memory cap of every solve with it and of its kept filters.
    """

    def __init__(self, factors, memory_cap: int = DEFAULT_MEMORY_CAP):
        factors = tuple(np.array(a, dtype=float) for a in factors)
        if not factors:
            raise ValueError("need at least one factor")
        for i, a in enumerate(factors):
            if a.ndim != 2 or a.shape[0] != a.shape[1]:
                raise ValueError(f"factor {i} is not square")
            if not a.size:
                raise ValueError(f"factor {i} is empty")
            _check_finite([a], f"factor {i}")
            scale = np.max(np.abs(a))
            if scale > 0 and np.max(np.abs(a - a.T)) > 1e-12 * scale:
                raise ValueError(f"factor {i} is not symmetric")
            a.flags.writeable = False
        if not memory_cap >= 1:  # NaN fails too
            raise ValueError(f"memory_cap must be at least 1, got {memory_cap}")
        self._factors, self._memory_cap = factors, memory_cap
        self._filters = _FilterStore()

    def __getstate__(self):
        # a copy keeps no filters; unpickling and copy.deepcopy would hand back writable arrays
        return {k: v for k, v in self.__dict__.items() if k != "_filters"}

    def __setstate__(self, state):
        self.__dict__.update(state, _filters=_FilterStore())
        for a in (*self._factors, *(a for pair in state.get("spectra", ()) for a in pair)):
            a.flags.writeable = False

    @property
    def factors(self) -> tuple:
        return self._factors

    @property
    def shape(self) -> tuple:
        return tuple(a.shape[0] for a in self._factors)

    @property
    def memory_cap(self) -> int:
        return self._memory_cap

    @cached_property
    def spectra(self) -> tuple:
        """Per-factor eigendecompositions ``(eigenvalues, eigenvectors)``."""
        out = []
        for i, a in enumerate(self._factors):
            lam, q = np.linalg.eigh(a)
            if lam[0] <= 0.0:
                raise ValueError(f"factor {i} is not positive definite (min eigenvalue {lam[0]:g})")
            lam.flags.writeable = q.flags.writeable = False
            out.append((lam, q))
        return tuple(out)

    @property
    def lambda_min(self) -> float:
        """Smallest eigenvalue of the sum: the sum of the factor minima."""
        return float(sum(lam[0] for lam, _ in self.spectra))

    def apply(self, c: np.ndarray) -> np.ndarray:
        """Forward map: sum of per-mode products with the factors."""
        c = np.asarray(c, dtype=float)
        self._check_shape(c.shape)
        eye = [np.eye(n) for n in c.shape]
        return sum(multi_mode_product(c, eye[:i] + [a] + eye[i + 1:]) for i, a in enumerate(self._factors))

    def _check_shape(self, shape) -> None:
        if tuple(shape) != self.shape:
            raise ValueError(f"tensor of shape {tuple(shape)} does not match operator shape {self.shape}")


@dataclass(frozen=True)
class SolveReport:
    """Audit record of one inverse-power application; the module docstring says what it covers.

    ``ranks`` is the format-specific rank vector of the result (empty for
    dense results).
    """

    n_terms: int
    error_bound: float
    wall_time: float
    ranks: tuple = field(default_factory=tuple)
    lambda_min: float = 0.0

    def __post_init__(self):
        if not self.error_bound >= 0.0:  # NaN fails too
            raise ValueError(f"error_bound must be nonnegative, got {self.error_bound}")


def _scale(ks: KroneckerSum, es: ExpSum) -> float:
    """``lambda_min**(-alpha)``: the factor between the sum on the scaled spectrum and the solution."""
    return ks.lambda_min ** (-es.params.alpha)


def _finite_norm(cnorm: float) -> None:
    """Raise a one-line ``ValueError`` unless ``cnorm``, the norm of a right-hand side, is finite (NaN fails too)."""
    if not math.isfinite(cnorm):
        raise ValueError(f"right-hand side norm is {cnorm}; entries must be finite")


def _sum_filter(ks: KroneckerSum, es: ExpSum) -> CPTensor:
    """The filter ``lambda_min**(-alpha) * sum_j w_j * outer_i exp(-t_j * Lambda_i / lambda_min)``.

    Factor ``i`` is the ``n_i x N`` matrix ``exp(-t_j * Lambda_i / lambda_min)``
    with its entries below ``sqrt(tiny)`` (exponents above ``-log(tiny)/2``,
    about 354) set to 0, so that no product of two kept entries is
    subnormal; the mode-0 factor also carries the scaled weights
    ``lambda_min**(-alpha) * w_j``.  Every factor entry is at most 1, so a
    term with a dropped entry is below ``w_j * sqrt(tiny)`` at every lattice
    point: the filter moves by at most ``lambda_min**(-alpha) * sqrt(tiny) *
    sum(w)`` entrywise, which ``_solve`` adds to ``error_bound``.
    """
    lam_min = ks.lambda_min
    factors = [np.exp(-np.outer(lam / lam_min, es.exponents)) for lam, _ in ks.spectra]
    for f in factors:
        f[f < math.sqrt(np.finfo(float).tiny)] = 0.0
    factors[0] = factors[0] * (_scale(ks, es) * es.weights)
    for f in factors:
        f.flags.writeable = False
    return CPTensor(tuple(factors))


# guards the bookkeeping of every _FilterStore; no filter is built under it
_STORE_LOCK = threading.Lock()


class _FilterStore:
    """The filters of one operator, per sum, each built the first time a solve asks for it.

    Sums hash by their parameters, so equal sums share their filters.  The
    factors :func:`_sum_filter` builds are kept for every sum met,
    ``sum(n_i) * N`` entries each.  The forms derived from them, the dense
    filter (read by :func:`solve_dense` and every all-wide Tucker solve) and
    the train for a budget (read by :func:`solve_tt`), are kept oldest first:
    keeping a form of ``m`` entries drops the oldest forms until the kept
    ones hold at most ``ks.memory_cap - m``, and a form above the operator's
    cap is not kept.  Every kept array is read-only.  The store holds no
    reference to its operator, so it is freed with it, and a copy of the
    operator starts with an empty store.  Threads may share it: two that miss
    the same form both build it, and either copy is the same filter.
    """

    def __init__(self):
        self._factors = {}  # sum -> CPTensor
        self._forms = {}  # (sum, None) -> dense, (sum, budget) -> train; as (form, entries), oldest first

    def held(self) -> int:
        """Entries of the kept dense and train forms; read it under ``_STORE_LOCK`` where threads share the store."""
        return sum(entries for _, entries in self._forms.values())

    def factors(self, ks: KroneckerSum, es: ExpSum) -> CPTensor:
        if es not in self._factors:
            self._factors[es] = _sum_filter(ks, es)
        return self._factors[es]

    def dense(self, ks: KroneckerSum, es: ExpSum) -> np.ndarray:
        """The densified filter."""
        return self._form(ks, (es, None), lambda: self.factors(ks, es).to_dense(ks.memory_cap))

    def train(self, ks: KroneckerSum, es: ExpSum, budget: float) -> TTTensor:
        """The filter as a train within ``budget`` of it, left-orthogonal as ``tensors._sweep_round`` leaves it."""
        return self._form(ks, (es, budget), lambda: _cp_to_tt(self.factors(ks, es).factors, budget))

    def _form(self, ks: KroneckerSum, key, build):
        kept = self._forms.get(key)
        if kept is not None:
            return kept[0]
        form = build()
        arrays = getattr(form, "carriages", (form,))
        for a in arrays:
            a.flags.writeable = False
        entries, cap = sum(a.size for a in arrays), ks.memory_cap
        if entries <= cap:
            with _STORE_LOCK:
                held = self.held()
                for old in list(self._forms):  # oldest first
                    if held + entries <= cap:
                        break
                    held -= self._forms.pop(old)[1]
                self._forms[key] = (form, entries)
        return form


def _in_eigenbasis(ks: KroneckerSum, c, step):
    """``Q step(Q^T c)``: rotate ``c`` into the joint eigenbasis, apply ``step`` there, rotate back.

    ``step`` is a path's entrywise product with its diagonal filter; ``c`` and
    its result may have any format :func:`multi_mode_product` takes.  This is
    the only reader of the eigenvectors.
    """
    qs = [q for _, q in ks.spectra]
    return multi_mode_product(step(multi_mode_product(c, [q.T for q in qs])), qs)


def _solve(ks: KroneckerSum, es: ExpSum, c, step, allowance: float = 0.0):
    """The protocol of every solve path: ``Q step(Q^T c)`` and its :class:`SolveReport`.

    In order: check the shape of ``c``; compute the eigendecompositions if
    they are not yet known, then start the clock; replace ``c`` by the form
    ``tensors._normed`` returns (a train left-orthogonal) and check that its
    norm ``cnorm`` is finite; rotate, ``step``, rotate back through
    :func:`_in_eigenbasis`; report, stopping the clock after ``error_bound``
    is evaluated.  ``ranks`` is read off the result: ``(rank,)`` of a CP
    tensor, the ranks of a Tucker tensor or a train, ``()`` of a dense one.
    """
    ks._check_shape(c.shape)
    ks.spectra
    start = time.perf_counter()
    c, cnorm = _normed(c)
    _finite_norm(cnorm)
    x = _in_eigenbasis(ks, c, step)
    # the most the entries that _sum_filter drops move the filter, before lambda_min**(-alpha)
    dropped = math.sqrt(np.finfo(float).tiny) * float(np.sum(es.weights))
    return x, SolveReport(
        n_terms=es.n_terms,
        error_bound=_scale(ks, es) * certified_bound(es) * cnorm + _scale(ks, es) * dropped * cnorm + allowance * cnorm,
        wall_time=time.perf_counter() - start,
        ranks=(x.rank,) if isinstance(x, CPTensor) else getattr(x, "ranks", ()),
        lambda_min=ks.lambda_min,
    )


def _eigenvalue_sums(ks: KroneckerSum) -> np.ndarray:
    """The eigenvalues ``lam_1[i_1] + ... + lam_d[i_d]`` of the Kronecker sum as a dense tensor."""
    return reduce(np.add.outer, [lam for lam, _ in ks.spectra])


def _face_split_factors(filt: CPTensor, factors) -> list:
    """Per mode, ``[E_i1 U_i ... E_iN U_i]``, ``E_ij`` the diagonal of column ``j`` of the filter's factor ``i``."""
    return [(f[:, :, None] * u[:, None, :]).reshape(len(f), -1) for f, u in zip(filt.factors, factors)]


def solve_dense(ks: KroneckerSum, c: np.ndarray, es: ExpSum):
    """Approximate the inverse fractional power applied to a dense tensor.

    The filter of the sum, densified on the eigenvalue lattice, is applied
    between one rotation into the joint eigenbasis and one rotation back.
    ``c`` is checked against ``ks.memory_cap`` first, and the operator keeps
    the densified filter for the next solve with an equal sum.
    """
    c = np.asarray(c, dtype=float)
    _check_memory(c.size, ks.memory_cap, "dense solve")
    return _solve(ks, es, c, lambda y: ks._filters.dense(ks, es) * y)


def solve_cp(ks: KroneckerSum, c: CPTensor, es: ExpSum):
    """Inverse fractional power of a CP right-hand side.

    Every term contributes the per-mode exponentials applied to the factor
    matrices, so the result has exactly ``n_terms * rank(c)`` rank-one terms,
    term ``j`` in columns ``j*rank(c)`` to ``(j+1)*rank(c) - 1`` (no
    recompression is attempted in this format).
    """
    return _solve(ks, es, c, lambda y: CPTensor(tuple(_face_split_factors(ks._filters.factors(ks, es), y.factors))))


def solve_tucker(ks: KroneckerSum, c: TuckerTensor, es: ExpSum):
    """Inverse fractional power of a Tucker right-hand side.

    In the eigenbasis mode ``i`` holds the stack ``[E_i1 U_i ... E_iN U_i]``
    of ``n_terms * r_i`` columns.  A wide stack (``n_i <= n_terms * r_i``)
    spans its mode, so it keeps the eigenbasis ``Q_i`` and its blocks
    ``R_ij`` are the stack itself; only a tall stack is orthogonalized by QR,
    and only the bases are rotated back.  The result is a valid Tucker tensor
    of multilinear ranks ``min(n_terms * r_i, n_i)``.  Its core
    ``sum_j C x_1 R_1j ... x_d R_dj`` (the scaled weights in the mode-0
    blocks) is, when every stack is wide, the operator's kept dense filter
    times ``C x_1 U_1 ... x_d U_d``.  Otherwise it is ``tensors._term_sum``
    of ``C`` and the blocks, the one term-sum kernel, which also densifies
    CP tensors.  Both run under ``ks.memory_cap``; the core is checked
    against it before the stacks are formed.
    """
    def combine(y: TuckerTensor) -> TuckerTensor:
        ranks = tuple(min(n, es.n_terms * r) for n, r in zip(y.shape, y.ranks))
        _check_memory(math.prod(ranks), ks.memory_cap, "Tucker core")
        if ranks == y.shape:
            filt = ks._filters.dense(ks, es)
            core = multi_mode_product(y.core, y.factors)
            core *= filt
            return TuckerTensor(core=core, factors=tuple(np.eye(n) for n in ranks))
        stacks = _face_split_factors(ks._filters.factors(ks, es), y.factors)
        qs, r_blocks = zip(*((np.eye(len(b)), b) if len(b) <= b.shape[1] else np.linalg.qr(b) for b in stacks))
        # R_i as (r'_i, n_terms, r_i): term j's block along the middle axis
        core = _term_sum(y.core, [b.reshape(len(b), es.n_terms, -1) for b in r_blocks], ks.memory_cap, "Tucker core")
        return TuckerTensor(core=core, factors=qs)

    return _solve(ks, es, c, combine)


def solve_tt(ks: KroneckerSum, c: TTTensor, es: ExpSum, round_tol: float = 1e-12):
    """Inverse fractional power of a tensor-train right-hand side.

    In the joint eigenbasis the solution is the entrywise product of the
    filter ``F`` with the rotated right-hand side ``c~``.  ``F`` is the rank-N
    CP tensor of the sum, a train with diagonal carriages; the carriages of
    ``c`` are rotated once, multiplied by it, and the product is rotated back.
    ``c~`` is left-orthogonal, by the one QR sweep of ``c`` that also gives
    ``||c||``, and so is ``F`` as rounded; the product requires both.

    The report's ``error_bound`` adds the allowance
    ``(n_terms - 1) * round_tol * ||c||_F`` to the certified quadrature
    bound.  The solve spends it in two roundings, each given the Frobenius
    budget ``half = (n_terms - 1) * round_tol / 2``:

    * ``F`` is rounded once to a train ``F_delta`` within ``half`` of it; its
      error ``E`` meets ``c~`` entrywise, so it moves the product by at most
      ``max|E| * ||c|| <= half * ||c||``;
    * the product ``F_delta * c~`` is rounded once, within ``half * ||c~||``
      of it (``tensors._tt_hadamard_round`` says how), and ``||c~|| = ||c||``.

    Rounding commutes with the orthogonal rotations, so the two add up to the
    allowance.  The ranks of the result are certified:
    ``ranks(x) <= ranks(F_delta) * ranks(c)``, entry by entry, and no rank
    exceeds that of the matching unfolding.  With ``round_tol`` zero (or one
    term) the allowance is zero and both roundings cut only singular values
    below their noise floor; that cut, like any other floating-point
    rounding, is outside ``error_bound``.

    The operator's :class:`_FilterStore` keeps ``F_delta``, which depends
    only on it, the sum and ``round_tol``, for the next solve, if its
    carriages fit ``ks.memory_cap``; the roundings' working arrays do not count.
    """
    _check_nonnegative(round_tol, "round_tol")
    half = (es.n_terms - 1) * round_tol / 2

    def step(y):
        # the filter's budget; relative to ||c~||, the product's
        return _tt_hadamard_round(ks._filters.train(ks, es, half), y, half)

    return _solve(ks, es, c, step, allowance=(es.n_terms - 1) * round_tol)


def oracle_apply(ks: KroneckerSum, c: np.ndarray, alpha: float) -> np.ndarray:
    """Exact inverse fractional power by full diagonalization.

    Rotates into the joint eigenbasis, scales by the eigenvalue sums raised
    to ``-alpha``, and rotates back; exact up to eigensolver accuracy.  Any
    finite ``alpha >= 0`` is accepted here (``alpha = 1`` solves the classical
    problem, ``alpha = 0`` is the identity), which makes this the reference
    for every solve path.  ``c`` is checked against ``ks.memory_cap`` first.

    It shares the eigendecomposition ``ks.spectra`` with every solve path,
    so a test or benchmark gate that compares a solve with it cannot see
    ``eigh``'s backward error, which ``error_bound`` leaves out.  That error
    is not always small against the bound: for ``laplacian_1d(512)`` at
    ``d = 2`` and a 300-term ``best_expsum`` sum, the error against the exact
    solution from the closed-form eigenpairs is 1.29 times ``error_bound``,
    while against this oracle it reads well below it.
    """
    c = np.asarray(c, dtype=float)
    ks._check_shape(c.shape)
    _check_nonnegative(alpha, "alpha")
    _check_memory(c.size, ks.memory_cap, "dense oracle")
    _finite_norm(_normed(c)[1])
    return _in_eigenbasis(ks, c, lambda y: _eigenvalue_sums(ks) ** (-alpha) * y)

