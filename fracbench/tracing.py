"""Spans around the calls into the ``fracsum`` layers, recorded from outside.

The tracer replaces public library functions by timing wrappers on every
name that binds them: ``solver`` imports its helpers with ``from .tensors
import ...``, so ``fracsum.solver.tt_round`` must be wrapped as well as
``fracsum.tensors.tt_round``.  Methods are wrapped on their class.  A target
that no longer exists is skipped, so its metrics read as zero.

Spans are kept in memory as ``(name, start, end, parent, request)`` tuples
and reduced at the end; a span's self time is its duration minus the time
covered by its child spans.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# (module, attribute path) of every wrapped function; the span is named
# after the module's last component and the attribute path.
TARGETS = [
    ("fracsum.expsum", "select_params"),
    ("fracsum.expsum", "params_for_terms"),
    ("fracsum.expsum", "build_expsum"),
    ("fracsum.expsum", "evaluate"),
    ("fracsum.expsum", "total_error_bound"),
    ("fracsum.problems", "laplacian_1d"),
    ("fracsum.problems", "sample_rhs"),
    ("fracsum.solver", "solve_dense"),
    ("fracsum.solver", "solve_cp"),
    ("fracsum.solver", "solve_tucker"),
    ("fracsum.solver", "solve_tt"),
    ("fracsum.solver", "oracle_apply"),
    ("fracsum.tensors", "unfold"),
    ("fracsum.tensors", "fold"),
    ("fracsum.tensors", "mode_product"),
    ("fracsum.tensors", "multi_mode_product"),
    ("fracsum.tensors", "hosvd"),
    ("fracsum.tensors", "tt_svd"),
    ("fracsum.tensors", "tt_add"),
    ("fracsum.tensors", "tt_norm"),
    ("fracsum.tensors", "tt_round"),
    ("fracsum.tensors", "tt_mode_product"),
    ("fracsum.tensors", "CPTensor.to_dense"),
    ("fracsum.tensors", "TuckerTensor.to_dense"),
    ("fracsum.tensors", "TTTensor.to_dense"),
]

SETUP = -1  # request id of spans recorded during set-up


class Tracer:
    """Records spans and call counts while installed."""

    def __init__(self):
        self.spans = []
        self.request = SETUP
        self._stack = []
        self._patches = []  # (owner, attribute, original)
        self.unfold_bytes = defaultdict(int)  # request id -> bytes read by unfold
        self.round_ranks = defaultdict(list)  # request id -> [(max rank in, max rank out)]

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap every target on every module attribute and class that binds it."""
        modules = [m for n, m in list(sys.modules.items()) if n == "fracsum" or n.startswith("fracsum.")]
        for module_name, path in TARGETS:
            module = sys.modules.get(module_name)
            if module is None:
                continue
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                continue
            wrapper = self._wrap(f"{module_name.rpartition('.')[2]}.{path}", original)
            if owner_name:
                self._patch(owner, attr, wrapper)
                continue
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, name, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    @contextmanager
    def recording(self, request: int):
        """Install the wrappers and tag the spans with ``request`` for the block."""
        self.request = request
        self.install()
        try:
            yield
        finally:
            self.uninstall()

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.request)
            self._count(name, args[0] if args else next(iter(kwargs.values()), None), result)
            return result

        return wrapper

    def _count(self, name, first, result) -> None:
        """Counters beyond calls, from the first argument and the result."""
        if name == "tensors.unfold":
            self.unfold_bytes[self.request] += getattr(first, "nbytes", 0)
        elif name == "tensors.tt_round" and hasattr(first, "ranks") and hasattr(result, "ranks"):
            self.round_ranks[self.request].append((max(first.ranks), max(result.ranks)))

    # -- reduction --------------------------------------------------------

    def self_times(self):
        """Per span index: duration minus the time covered by its children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        return [end - start - c for (_, start, end, _, _), c in zip(self.spans, child)]

    def totals(self, requests):
        """Per span name over the given request ids: (calls, inclusive s, self s)."""
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for (name, start, end, _, req), own in zip(self.spans, self.self_times()):
            if req in requests:
                row = out[name]
                row[0] += 1
                row[1] += end - start
                row[2] += own
        return out

    def write(self, path) -> None:
        """Write the spans as tab-separated lines: name, start, end, parent, request."""
        with open(path, "w") as fh:
            for i, (name, start, end, parent, req) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{start:.9f}\t{end:.9f}\t{'' if parent is None else parent}\t{req}\n")
