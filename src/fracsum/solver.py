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

built once per solve as a :class:`fracsum.tensors.CPTensor` whose mode-0
factor carries the scaled weights ``lambda_min**(-alpha) * w_j``; the exact
reference :func:`oracle_apply` uses ``F = (sum_i Lambda_i)**(-alpha)``.  A
path supplies only its entrywise product with ``F``: dense tensors multiply
``F`` densified; CP and Tucker factors are scaled term by term along their mode
index by the factors of ``F`` (Tucker re-orthogonalizes the stack by QR);
tensor trains are multiplied by ``F`` written as a compressed train, which
``_tt_filter`` keeps for the next solve with the same operator, sum and budget.

Around those steps every solve path runs one protocol, written once in
``_solve``, and adds only its own input checks and its entrywise step.  The
clock starts after the eigendecompositions, which run once per operator, so
``wall_time`` excludes them and includes everything in the steps, such as
building the train path's filter.  ``error_bound`` is
``lambda_min**(-alpha) * certified_bound(es) * ||c||_F`` plus a path's
allowance times ``||c||_F`` (only the train path has one, for recompression).
It takes the eigendecompositions as exact: their backward error,
``O(u*||A_i||)`` per factor for the unit roundoff ``u``, is outside the bound.
Non-finite input fails with a ``ValueError``: factors at construction, and a
right-hand side whose norm is not finite at the start of a solve.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, reduce

import numpy as np

from .expsum import ExpSum, certified_bound
from .tensors import (
    DEFAULT_MEMORY_CAP,
    CPTensor,
    MemoryCapError,
    TTTensor,
    TuckerTensor,
    _check_memory,
    _check_nonnegative,
    _cp_to_tt,
    _normed,
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
    copies, so an operator never changes after it is built.
    """

    def __init__(self, factors):
        factors = tuple(np.array(a, dtype=float) for a in factors)
        if not factors:
            raise ValueError("need at least one factor")
        for i, a in enumerate(factors):
            if a.ndim != 2 or a.shape[0] != a.shape[1]:
                raise ValueError(f"factor {i} is not square")
            if not np.all(np.isfinite(a)):
                raise ValueError(f"factor {i} has non-finite entries")
            scale = np.max(np.abs(a))
            if scale > 0 and np.max(np.abs(a - a.T)) > 1e-12 * scale:
                raise ValueError(f"factor {i} is not symmetric")
            a.flags.writeable = False
        self._factors = factors

    @property
    def factors(self) -> tuple:
        return self._factors

    @property
    def shape(self) -> tuple:
        return tuple(a.shape[0] for a in self._factors)

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
        if self.error_bound < 0.0:
            raise ValueError("error_bound must be nonnegative")


def _scale(ks: KroneckerSum, es: ExpSum) -> float:
    """``lambda_min**(-alpha)``: the factor between the sum on the scaled spectrum and the solution."""
    return ks.lambda_min ** (-es.params.alpha)


def _finite_norm(cnorm: float) -> None:
    """Raise a one-line ``ValueError`` unless ``cnorm``, the norm of a right-hand side, is finite (NaN fails too)."""
    if not math.isfinite(cnorm):
        raise ValueError(f"right-hand side norm is {cnorm}; entries must be finite")


def _sum_filter(ks: KroneckerSum, es: ExpSum) -> CPTensor:
    """The filter ``lambda_min**(-alpha) * sum_j w_j * outer_i exp(-t_j * Lambda_i / lambda_min)``.

    Factor ``i`` is the ``n_i x N`` matrix ``exp(-t_j * Lambda_i / lambda_min)``;
    the mode-0 factor also carries the scaled weights ``lambda_min**(-alpha) * w_j``.
    """
    lam_min = ks.lambda_min
    factors = [np.exp(-np.outer(lam / lam_min, es.exponents)) for lam, _ in ks.spectra]
    factors[0] = factors[0] * (_scale(ks, es) * es.weights)
    return CPTensor(tuple(factors))


@lru_cache(maxsize=1)
def _tt_filter(ks: KroneckerSum, es: ExpSum, budget: float) -> TTTensor:
    """The filter of ``es`` as a train within ``budget`` of it, kept for the next call with the same arguments.

    The one entry is keyed on the operator (by identity), the sum (by value,
    so equal sums share the train) and the budget; it keeps the operator
    alive next to its train.  As output of ``tensors._sweep_round`` the train
    is left-orthogonal, as the product rounding requires, and no QR sweep
    ever runs on it.
    """
    return _cp_to_tt(_sum_filter(ks, es).factors, budget)


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
    return x, SolveReport(
        n_terms=es.n_terms,
        error_bound=_scale(ks, es) * certified_bound(es) * cnorm + allowance * cnorm,
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


def solve_dense(ks: KroneckerSum, c: np.ndarray, es: ExpSum, memory_cap: int = DEFAULT_MEMORY_CAP):
    """Approximate the inverse fractional power applied to a dense tensor.

    The filter of the sum is densified once on the eigenvalue lattice and
    applied between one rotation into the joint eigenbasis and one rotation
    back.  Raises :class:`MemoryCapError` before the filter is formed when
    ``c`` has more than ``memory_cap`` entries.
    """
    c = np.asarray(c, dtype=float)
    _check_memory(c.size, memory_cap, "dense solve")

    def step(y):
        # memory_cap bounds c; the filter's Khatri-Rao operands get at least the default cap
        return _sum_filter(ks, es).to_dense(max(memory_cap, DEFAULT_MEMORY_CAP)) * y

    return _solve(ks, es, c, step)


def solve_cp(ks: KroneckerSum, c: CPTensor, es: ExpSum):
    """Inverse fractional power of a CP right-hand side.

    Every term contributes the per-mode exponentials applied to the factor
    matrices, so the result has exactly ``n_terms * rank(c)`` rank-one terms,
    term ``j`` in columns ``j*rank(c)`` to ``(j+1)*rank(c) - 1`` (no
    recompression is attempted in this format).
    """
    def step(y):
        return CPTensor(tuple(_face_split_factors(_sum_filter(ks, es), y.factors)))

    return _solve(ks, es, c, step)


def solve_tucker(ks: KroneckerSum, c: TuckerTensor, es: ExpSum):
    """Inverse fractional power of a Tucker right-hand side.

    In the eigenbasis the stacked per-term factors are re-orthogonalized by
    QR, and only the orthonormal bases are rotated back, so the result is a
    valid Tucker tensor with multilinear ranks at most
    ``min(n_terms * rank_i, n_i)``.

    The new core ``sum_j C x_1 R_1j ... x_d R_dj`` (``R_ij``: blocks of the
    triangular factors; the scaled weights sit in the mode-0 blocks) is
    contracted ``r'_d // r_d`` terms at a time, so no intermediate exceeds
    the core: modes 1..d-1 by products batched over the terms, the last by
    one product that also sums them.
    """
    def combine(y: TuckerTensor) -> TuckerTensor:
        qs, r_blocks = zip(*(np.linalg.qr(b) for b in _face_split_factors(_sum_filter(ks, es), y.factors)))
        # R_i as (r'_i, n_terms, r_i): term j's block along the middle axis
        r_blocks = [b.reshape(len(b), es.n_terms, -1) for b in r_blocks]
        ranks = tuple(len(b) for b in r_blocks)
        chunk = max(1, ranks[-1] // y.ranks[-1])
        core = np.zeros((np.prod(ranks[:-1], dtype=int), ranks[-1]))
        for lo in range(0, es.n_terms, chunk):
            terms = slice(lo, min(lo + chunk, es.n_terms))
            x = np.broadcast_to(y.core, (terms.stop - lo,) + y.core.shape)
            for b in r_blocks[:-1]:
                # contract axis 1 with each term's block; its new index becomes the last axis
                m = np.matmul(x.reshape(*x.shape[:2], -1).transpose(0, 2, 1), b[:, terms].transpose(1, 2, 0))
                x = m.reshape(x.shape[:1] + x.shape[2:] + (len(b),))
            last = r_blocks[-1][:, terms].transpose(1, 2, 0).reshape(-1, ranks[-1])
            core += x.reshape(len(last), -1).T @ last
        return TuckerTensor(core=core.reshape(ranks), factors=qs)

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

    ``F_delta`` depends only on the operator, the sum and ``round_tol``, never
    on ``c``; ``_tt_filter`` keeps the last one built in the process.
    """
    _check_nonnegative(round_tol, "round_tol")

    half = (es.n_terms - 1) * round_tol / 2

    def step(y):
        # the filter's budget; relative to ||c~||, the product's
        return _tt_hadamard_round(_tt_filter(ks, es, half), y, half)

    return _solve(ks, es, c, step, allowance=(es.n_terms - 1) * round_tol)


def oracle_apply(ks: KroneckerSum, c: np.ndarray, alpha: float, memory_cap: int = DEFAULT_MEMORY_CAP) -> np.ndarray:
    """Exact inverse fractional power by full diagonalization.

    Rotates into the joint eigenbasis, scales by the eigenvalue sums raised
    to ``-alpha``, and rotates back; exact up to eigensolver accuracy.  Any
    finite ``alpha >= 0`` is accepted here (``alpha = 1`` solves the classical
    problem, ``alpha = 0`` is the identity), which makes this the reference
    for every solve path.
    """
    c = np.asarray(c, dtype=float)
    ks._check_shape(c.shape)
    _check_nonnegative(alpha, "alpha")
    _check_memory(c.size, memory_cap, "dense oracle")
    _finite_norm(_normed(c)[1])
    return _in_eigenbasis(ks, c, lambda y: _eigenvalue_sums(ks) ** (-alpha) * y)

