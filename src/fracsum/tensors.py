"""Dense, CP, Tucker and tensor-train tensors with rank-controlled arithmetic.

Dense tensors are plain ``numpy.ndarray`` objects.  A tensor is linearized
column-major throughout, the first index varying fastest.  Under this
convention the mode-1 product of a matrix with a d = 2 tensor is the
ordinary product ``A @ X``, and the mode-i product acts on the linearized
tensor as the Kronecker-structured matrix whose non-identity factor sits in
position i counted from the right.
:func:`multi_mode_product` is the one kernel for a matrix along every mode,
in every format: dense tensors by one matrix product per mode, CP and Tucker
tensors by multiplying their factors, trains through :func:`tt_mode_product`.
The solver's rotations, Tucker densification and the HOSVD core use it.

Formats:

* :class:`CPTensor` -- k rank-one terms, one ``n_i x k`` factor per mode.
* :class:`TuckerTensor` -- dense core times per-mode orthonormal factors.
* :class:`TTTensor` -- tensor train; boundary carriages are matrices, the
  inner ones order-3 arrays.  ``_as_cores`` and ``_from_cores`` are the
  only code that maps the boundary matrices to order-3 cores with unit
  boundary ranks and back; the kernels here read and write trains as cores.

Every train is rounded by the two sweeps of ``_sweep_round``, which sees
the carriages only through contractions and keeps only the triangular
factors of the right parts: :func:`tt_round` rounds a train's own carriages
at a threshold relative to its norm, ``_cp_to_tt`` turns a CP tensor (a
train with diagonal carriages) into a compressed train, and
``_tt_hadamard_round`` rounds the entrywise product of two trains, both at
an absolute threshold per step.  With a zero threshold only singular values
below a step's noise floor are cut.  :func:`tt_svd` factorizes a dense
tensor.

Every dense path that could outgrow memory, here and in the solver, raises
:class:`MemoryCapError` before it forms more than ``memory_cap`` entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "DEFAULT_MEMORY_CAP",
    "CPTensor",
    "MemoryCapError",
    "TTTensor",
    "TuckerTensor",
    "cp_als",
    "hosvd",
    "mode_product",
    "multi_mode_product",
    "tt_mode_product",
    "tt_norm",
    "tt_round",
    "tt_svd",
    "unfold",
]

_ORTHO_TOL = 1e-12
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


def mode_product(x: np.ndarray, mode: int, a: np.ndarray) -> np.ndarray:
    """Mode-``mode`` product: contract ``a``'s columns with the tensor's mode.

    Satisfies ``unfold(mode_product(x, i, a), i) == a @ unfold(x, i)``.
    """
    x = np.asarray(x)
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[1] != x.shape[mode]:
        raise ValueError(f"matrix of shape {a.shape} does not match mode {mode} of extent {x.shape[mode]}")
    y = np.tensordot(x, a, axes=([mode], [1]))
    return np.moveaxis(y, -1, mode)


def multi_mode_product(x, mats):
    """``x x_1 mats[0] ... x_d mats[d-1]`` in any format: exactly one matrix per mode.

    Dense: each step contracts the leading axis by one matrix product on a
    reshaped view and appends the result as the last axis, so after ``d``
    steps the modes are back in order.  CP and Tucker tensors multiply their
    factors (Tucker factors must stay orthonormal), trains call
    :func:`tt_mode_product` per mode.
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
        for i, a in enumerate(mats):
            x = tt_mode_product(x, i, a)
        return x
    for a in mats:
        x = (x.reshape(x.shape[0], -1).T @ a.T).reshape(x.shape[1:] + (a.shape[0],))
    return x


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


def cp_als(
    x: np.ndarray,
    rank: int,
    max_iters: int = 100,
    tol: float = 1e-12,
    restarts: int = 5,
    rng=None,
    init: CPTensor | None = None,
) -> CPTensor:
    """Fit a CP approximation by alternating least squares.

    Runs ``restarts`` independent sweeps (the first seeded with ``init`` when
    given, the rest with random unit-normal factors) and keeps the best fit.
    Each mode update solves regularized normal equations (ridge 1e-12), so a
    rank-deficient iterate cannot abort the sweep, and the fit error is
    nonincreasing over the sweeps of one run up to that regularization.
    Iteration stops when the relative fit change drops below ``tol``.

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
    if rank < 1:
        raise ValueError(f"rank must be positive, got {rank}")
    rng = np.random.default_rng(rng)
    d = x.ndim
    norm_x = np.linalg.norm(x)
    unfoldings = [unfold(x, i) for i in range(d)]

    best = None
    best_err = np.inf
    for run in range(max(1, restarts)):
        if run == 0 and init is not None:
            if init.shape != x.shape or init.rank != rank:
                raise ValueError("init must match the target shape and requested rank")
            factors = [f.copy() for f in init.factors]
        else:
            factors = [_normalized_columns(rng.standard_normal((n, rank))) for n in x.shape]
        grams = [f.T @ f for f in factors]

        prev_err = np.inf
        err = np.inf
        for _ in range(max_iters):
            for i in range(d):
                others = [factors[j] for j in range(d) if j != i]
                kr = _khatri_rao(others)
                mttkrp = unfoldings[i] @ kr
                gram = np.ones((rank, rank))
                for j in range(d):
                    if j != i:
                        gram *= grams[j]
                factors[i] = np.linalg.solve(gram + 1e-12 * np.eye(rank), mttkrp.T).T
                grams[i] = factors[i].T @ factors[i]
            # fit via the Gram identity: ||x - T||^2 = ||x||^2 - 2<T,x> + ||T||^2
            inner = float(np.sum(mttkrp * factors[d - 1]))
            gram_all = np.ones((rank, rank))
            for g in grams:
                gram_all *= g
            norm_t_sq = float(np.sum(gram_all))
            err = math.sqrt(max(norm_x**2 - 2.0 * inner + norm_t_sq, 0.0))
            if prev_err - err <= tol * max(norm_x, 1e-300):
                break
            prev_err = err
        if err < best_err:
            best_err = err
            best = CPTensor(tuple(f.copy() for f in factors))
    return best


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
    Exactly one of ``ranks`` (per-mode cap, clipped to the mode extents) and
    ``tol`` must be given; in tolerance mode each mode keeps the smallest
    rank whose discarded singular values have norm at most
    ``tol*||x||/sqrt(d)`` (see :func:`_truncation_rank`), so the total
    reconstruction error is at most ``tol*||x||``.  The squared
    reconstruction error never exceeds the sum of squared discarded singular
    values over all modes.
    """
    x = np.asarray(x, dtype=float)
    if (ranks is None) == (tol is None):
        raise ValueError("pass exactly one of ranks and tol")
    if tol is not None:
        _check_nonnegative(tol, "tol")
    d = x.ndim
    if ranks is not None and np.isscalar(ranks):
        ranks = (int(ranks),) * d
    factors = []
    for i in range(d):
        u, s, _ = np.linalg.svd(unfold(x, i), full_matrices=False)
        if ranks is not None:
            r = min(int(ranks[i]), x.shape[i], u.shape[1])
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
    ``tol`` (and a fortiori within ``tol*sqrt(d-1)``); ``max_rank`` caps every
    rank on top of that.
    """
    x = np.asarray(x, dtype=float)
    _check_nonnegative(tol, "tol")
    d = x.ndim
    if d < 2:
        raise ValueError("tensor trains need at least two modes")
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
    """Frobenius norm via a left-to-right QR sweep (stable for any ranks)."""
    r = np.ones((1, 1))
    for core in _as_cores(x):
        m = np.tensordot(r, core, axes=([1], [0]))
        r = np.linalg.qr(m.reshape(-1, m.shape[2]), mode="r")
    return float(np.linalg.norm(r))


def tt_round(x: TTTensor, tol: float) -> TTTensor:
    """Recompress a train so that its relative error stays within ``tol``; ranks never increase.

    The two sweeps of :func:`_sweep_round` run over the train's own
    carriages at the per-step threshold ``tol*||x||/sqrt(d-1)``.  ``||x||``
    is read off the first truncation step, whose singular values are those
    of the first unfolding, so no separate norm sweep runs.  With ``tol``
    zero only singular values below the noise floor
    ``len(s)*eps*s[0]`` of a step are cut.
    """
    _check_nonnegative(tol, "tol")
    cores = _as_cores(x)
    delta = tol / math.sqrt(x.ndim - 1)
    return _round_cores(lambda k, rows: cores[k][:, rows], x.shape, delta, relative=True)


def _sweep_round(left, right, shape, delta: float, block: int, relative: bool = False) -> TTTensor:
    """Round a train known only through its carriages' contractions, at ``delta`` per step.

    ``left(k, m, rows)`` contracts the left rank of carriage ``k`` (an
    ``R x n_k x R'`` array, restricted to the mode indices ``rows``) with the
    columns of ``m``, giving ``(len(m), len(rows), R')``; ``right(k, m, rows)``
    contracts its right rank instead, giving ``(len(m), len(rows), R)``.  The
    train is closed by ones: ``m`` is ``[[1]]`` at carriage 0's left rank and
    the last one's right rank (broadcast where that rank exceeds one), and
    the last carriage is summed over its right rank.  ``block`` mode indices
    are contracted at a time, so no carriage is ever formed whole.

    Right to left, only the triangular factor ``T_k`` of each right part
    (carriages ``k..d-1``, its left rank as columns) is kept:
    ``T_k`` is the R factor of the right contraction of ``T_{k+1}``,
    accumulated block by block as ``qr(vstack([T_k, block]))``.  Left to
    right, ``M_k`` is the carry ``Z_k`` (``[[1]]`` for ``k = 0``) contracted
    with carriage ``k``.  The right part is ``T_{k+1}^T`` times orthonormal
    rows, so the singular values of ``M_k T_{k+1}^T`` are exactly those of
    the unfolding against the basis kept so far; truncating them at
    ``delta`` gives carriage ``k`` as ``U`` and the next carry ``U^T M_k``.  The errors of the steps are
    mutually orthogonal, so the result is within ``sqrt(d-1)*delta`` of the
    train in the Frobenius norm.  With ``relative`` the threshold is
    ``delta*||x||`` instead: the first step's singular values are those of
    the first unfolding, so their norm is ``||x||`` exactly.

    With a zero threshold a step cuts only singular values below its noise
    floor ``len(s)*eps*s[0]`` (see :func:`_truncation_rank`); that cut, like
    any other floating-point rounding, is not counted in the bound above.
    """
    d = len(shape)
    z = one = np.ones((1, 1))
    ts = [None] * d + [one]  # ts[k]: the R factor of the right part from carriage k on
    for k in range(d - 1, 0, -1):
        for lo in range(0, shape[k], block):
            w = right(k, ts[k + 1], slice(lo, lo + block))
            w = w.reshape(-1, w.shape[2])
            ts[k] = np.linalg.qr(w if ts[k] is None else np.vstack([ts[k], w]), mode="r")

    def carry(k, z):
        return np.concatenate([left(k, z, slice(lo, lo + block)) for lo in range(0, shape[k], block)], axis=1)

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


def _round_cores(core, shape, delta: float, relative: bool = False) -> TTTensor:
    """:func:`_sweep_round` for a train with unit boundary ranks whose carriage ``k`` is ``core(k, rows)``.

    ``core(k, rows)`` is carriage ``k`` as an order-3 array (see
    :func:`_as_cores`), restricted to the mode indices ``rows``; it is asked
    for four mode indices at a time.
    """

    def left(k, m, rows):
        return np.tensordot(m, core(k, rows), axes=1)

    def right(k, m, rows):
        return np.tensordot(m, core(k, rows), axes=([1], [2])).transpose(0, 2, 1)

    return _sweep_round(left, right, shape, delta, block=4, relative=relative)


def _cp_to_tt(factors, delta: float) -> TTTensor:
    """The CP tensor ``sum_j outer_i factors[i][:, j]`` as a train rounded at ``delta`` per step.

    As a train it has diagonal ``N x n_i x N`` carriages, closed by ones on
    both sides; they are never formed, because contracting one with a matrix
    only scales the matrix's columns by a row of the mode's factor.  The
    result is within ``sqrt(d-1)*delta`` of the CP tensor in the Frobenius
    norm (see :func:`_sweep_round`).
    """

    def scale(k, m, rows):
        return m[:, None, :] * factors[k][None, rows]

    shape = [len(f) for f in factors]
    return _sweep_round(scale, scale, shape, delta, block=2)


def _face_split(g: np.ndarray, h: np.ndarray) -> np.ndarray:
    """The carriage of an entrywise product: ``(r, n, s)`` and ``(r', n, s')`` give ``(r r', n, s s')``."""
    (ra, n, sa), (rb, _, sb) = g.shape, h.shape
    return (g[:, None, :, :, None] * h[None, :, :, None, :]).reshape(ra * rb, n, sa * sb)


def _tt_hadamard_round(a: TTTensor, b: TTTensor, delta: float) -> TTTensor:
    """The entrywise product ``a * b`` rounded at absolute threshold ``delta`` per step.

    The product's carriages are the face-split products of the inputs'
    carriages, with ranks ``ranks(a) * ranks(b)``; each is formed a few mode
    indices at a time inside the two sweeps of :func:`_sweep_round`, so the
    product train never exists whole.  The result is within
    ``sqrt(d-1)*delta`` of ``a * b`` in the Frobenius norm, and each of its
    ranks is at most the product of the inputs' ranks.
    """
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    ga, gb = _as_cores(a), _as_cores(b)
    return _round_cores(lambda k, rows: _face_split(ga[k][:, rows], gb[k][:, rows]), a.shape, delta)
