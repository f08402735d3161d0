"""Benchmark instances: 1D finite-difference Laplacians and grid-sampled right-hand sides."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tensors import DEFAULT_MEMORY_CAP, CPTensor, TTTensor, _check_memory, tt_round

__all__ = ["Grid1D", "RhsSpec", "RHS_KINDS", "laplacian_1d", "sample_rhs"]

RHS_KINDS = ("inv_linear", "separable", "random_rank1", "custom")


@dataclass(frozen=True)
class Grid1D:
    """Uniform grid of ``n`` interior unknowns with spacing ``h = 1/(n-1)``.

    The unknowns sit at ``x_k = k*h`` for ``k = 1..n``.  Note that with this
    spacing the last point reaches past 1; the convention is kept because the
    discrete operators below are defined through the same ``h``.
    """

    n: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"need at least 2 grid points, got {self.n}")

    @property
    def h(self) -> float:
        return 1.0 / (self.n - 1)

    @property
    def points(self) -> np.ndarray:
        return self.h * np.arange(1, self.n + 1)


def laplacian_1d(n: int) -> np.ndarray:
    """Dirichlet finite-difference Laplacian ``(1/h^2) * tridiag(-1, 2, -1)``.

    Symmetric positive definite for every ``n >= 2``; the eigenvalues are
    ``(4/h^2) * sin(k*pi/(2*(n+1)))**2`` for ``k = 1..n``.
    """
    if n < 2:
        raise ValueError(f"need at least 2 unknowns, got {n}")
    h = Grid1D(n).h
    a = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    return a / h**2


@dataclass(frozen=True)
class RhsSpec:
    """Right-hand-side selector.

    ``kind`` is one of ``inv_linear`` (samples of 1/(1 + x_1 + ... + x_d)),
    ``separable`` (samples of sin(x)cos(y)e^z, d = 3 only), ``random_rank1``
    (outer product of standard normal vectors, reproducible through ``seed``)
    or ``custom`` (``fn`` evaluated on broadcast coordinate arrays, its result
    broadcast to the grid's shape).
    """

    kind: str
    d: int
    seed: int | None = None
    fn: object = None

    def __post_init__(self):
        if self.kind not in RHS_KINDS:
            raise ValueError(f"unknown rhs kind {self.kind!r}; choose from {RHS_KINDS}")
        if self.d < 1:
            raise ValueError("dimension must be positive")
        if self.kind == "separable" and self.d != 3:
            raise ValueError("the separable benchmark rhs is three-dimensional")
        if self.kind == "custom" and not callable(self.fn):
            raise ValueError("custom rhs needs a callable fn")


def sample_rhs(spec: RhsSpec, grids, memory_cap: int = DEFAULT_MEMORY_CAP):
    """Sample a right-hand side on a per-mode list of grids.

    Returns a CP tensor for the separable and random rank-one kinds, a dense
    array for ``inv_linear`` and ``custom`` when the entry count fits under
    ``memory_cap``, and for ``inv_linear`` above the cap a tensor train built
    exactly from the lattice of coordinate sums and recompressed at 1e-10.
    At d = 2 and 3 the train's set-up needs at least the dense array's
    entries, so there a cap that refuses the array raises
    :class:`MemoryCapError`.
    """
    grids = list(grids)
    if len(grids) != spec.d:
        raise ValueError(f"expected {spec.d} grids, got {len(grids)}")
    points = [g.points for g in grids]
    shape = tuple(g.n for g in grids)
    total = math.prod(shape)

    if spec.kind == "separable":
        x, y, z = points
        return CPTensor.from_rank1([np.sin(x), np.cos(y), np.exp(z)])

    if spec.kind == "random_rank1":
        rng = np.random.default_rng(spec.seed)
        return CPTensor.from_rank1([rng.standard_normal(g.n) for g in grids])

    if spec.kind == "custom":
        _check_memory(total, memory_cap, "custom rhs")
        x = np.asarray(spec.fn(*np.ix_(*points)), dtype=float)
        # a function that ignores a coordinate returns a thinner array
        return x if x.shape == shape else np.broadcast_to(x, shape).copy()

    # inv_linear
    if total <= memory_cap:
        return 1.0 / (1.0 + sum(np.ix_(*points)))
    return _inv_linear_tt(grids, memory_cap)


def _inv_linear_tt(grids, memory_cap: int) -> TTTensor:
    """Exact train for a function of the coordinate sum, then recompression at 1e-10.

    On a common uniform grid the sum ``x_1 + ... + x_d`` only takes the
    lattice values ``h*(d + k)`` with ``k = 0 .. d*(n-1)``, so the tensor of
    samples factorizes exactly through carriages that track the running index
    sum; the raw ranks ``j*(n-1)+1`` collapse to the numerical rank after one
    rounding pass.  The raw carriages are dense.
    """
    ns = {g.n for g in grids}
    if len(ns) != 1:
        raise ValueError("the train construction for inv_linear needs a common grid in every mode")
    n = ns.pop()
    d = len(grids)
    if d < 2:
        raise ValueError("tensor trains need at least two modes")
    h = grids[0].h
    ranks = [j * (n - 1) + 1 for j in range(d)] + [1]  # carriage j maps ranks[j] running sums to ranks[j+1]
    _check_memory(max(r * n * q for r, q in zip(ranks, ranks[1:])), memory_cap, "inv_linear train")
    cars = [np.eye(n)]
    for j in range(1, d - 1):
        c = np.zeros((ranks[j], n, ranks[j + 1]))
        s_idx = np.arange(ranks[j])
        for k in range(n):
            c[s_idx, k, s_idx + k] = 1.0
        cars.append(c)
    s = np.add.outer(np.arange(ranks[d - 1]), np.arange(n))  # running index sum
    cars.append(1.0 / (1.0 + h * (s + d)))
    return tt_round(TTTensor(tuple(cars)), 1e-10)
