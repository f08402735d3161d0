"""One workload in one process: set-up, warm-up, closed-loop timed requests.

``run.py`` starts this file as a child process.  It prints ``READY`` on
standard output once set-up (including one untimed warm-up request) is done,
and one JSON record as its last line when the run ends.  With
``--setup-only`` it exits right after ``READY``; ``run.py`` uses that to
repeat the set-up in fresh processes.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

# Requests whose accuracy enters rel_error_max, rel_bound_max and max_rank:
# a fixed window keeps those figures a function of the seed alone, while
# every request is still gated.
ACCURACY_WINDOW = 10

# Environment variables that change what is measured; recorded with each run.
ENV_VARS = ("FRACSUM_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_")

# Per-layer metrics: (name, unit, how, span names).  "self" sums self time,
# "time" inclusive time, "calls" the call count, each per traced request;
# "setup" is inclusive time during set-up and warm-up.
LAYER_METRICS = [
    ("solver.solve_dense_self_s", "s", "self", ["solver.solve_dense"]),
    ("tensors.unfold_s", "s", "time", ["tensors.unfold"]),
    ("tensors.fold_s", "s", "time", ["tensors.fold"]),
    ("tensors.unfold_calls", "count", "calls", ["tensors.unfold"]),
    ("tensors.tt_round_s", "s", "time", ["tensors.tt_round"]),
    ("tensors.tt_round_calls", "count", "calls", ["tensors.tt_round"]),
    ("tensors.tt_norm_s", "s", "time", ["tensors.tt_norm"]),
    ("tensors.tt_norm_calls", "count", "calls", ["tensors.tt_norm"]),
    ("tensors.tt_add_s", "s", "time", ["tensors.tt_add"]),
    ("tensors.tt_mode_product_s", "s", "time", ["tensors.tt_mode_product"]),
    ("solver.solve_tt_self_s", "s", "self", ["solver.solve_tt"]),
    ("solver.solve_tucker_self_s", "s", "self", ["solver.solve_tucker"]),
    ("solver.solve_cp_self_s", "s", "self", ["solver.solve_cp"]),
    ("tensors.mode_product_s", "s", "time", ["tensors.mode_product"]),
    ("tensors.mode_product_calls", "count", "calls", ["tensors.mode_product"]),
    ("tensors.to_dense_s", "s", "time", ["tensors.CPTensor.to_dense", "tensors.TuckerTensor.to_dense", "tensors.TTTensor.to_dense"]),
    ("problems.sample_rhs_s", "s", "setup", ["problems.sample_rhs"]),
    ("expsum.params_for_terms_s", "s", "setup", ["expsum.params_for_terms"]),
]


def import_library():
    """Import ``fracsum`` from this checkout's sources, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "fracsum", "__init__.py")):
        raise SystemExit(f"fracbench: no fracsum sources under {SRC}")
    sys.path.insert(0, SRC)
    import fracsum

    if not os.path.abspath(fracsum.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"fracbench: imported fracsum from {fracsum.__file__}, not {SRC}")
    return fracsum


def blas_threads():
    """The OpenBLAS thread count numpy runs with, or None where it cannot be read."""
    import numpy as np

    for path in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def run(workload: str, seed: int, seconds: float, trace: bool, size: str = "full", ready=None, spans=None):
    """Run one workload and return its record (a JSON-serializable dict).

    ``ready`` is called once set-up and warm-up are done; a traced run writes
    its spans to the path ``spans`` when one is given.
    """
    fs = import_library()
    import numpy as np
    from tracing import SETUP, Tracer
    from workloads import WORKLOADS, digest

    tracer = Tracer() if trace else None
    wl = WORKLOADS[workload](fs, size)
    failures = []

    def attempt(k, traced):
        """One request and its check; returns (seconds, output, Check) or None on failure."""
        inp = wl.make_input(k)
        try:
            with tracer.recording(k) if traced else nullcontext():
                start = time.perf_counter()
                out = wl.request(inp)
                elapsed = time.perf_counter() - start
            check = wl.check(inp, out)
        except Exception:
            failures.append(f"request {k}: {traceback.format_exc()}")
            return None
        if not check.ok:
            failures.append(f"request {k}: {check.detail}")
        return elapsed, out, check

    with tracer.recording(SETUP) if tracer else nullcontext():
        wl.setup(seed)
        wl.request(wl.make_input(-1))  # warm-up: BLAS start-up and first-call costs, unchecked
    if ready:
        ready()

    times, traced_times, checks, reference_s = [], [], [], []
    first_digest = None
    k = 0
    deadline = time.perf_counter() + seconds
    while k == 0 or time.perf_counter() < deadline:
        traced = tracer is not None and k % 2 == 1
        res = attempt(k, traced)
        if res is not None:
            elapsed, out, check = res
            (traced_times if traced else times).append(elapsed)
            checks.append(check)
            reference_s.append(check.reference_s)
            if k == 0:
                first_digest = digest(wl.outputs(out))
        k += 1

    replay = attempt(0, traced=False)
    attempted = k + 1
    if replay is not None and first_digest is not None and digest(wl.outputs(replay[1])) != first_digest:
        failures.append("replay of request 0 is not bit-identical")

    window = checks[:ACCURACY_WINDOW]
    record = {
        "workload": workload,
        "seed": seed,
        "size": size,
        "trace": int(trace),
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "request_times": times,
        "rel_error_max": max((c.rel_error for c in window), default=0.0),
        "rel_bound_max": max((c.rel_bound for c in window), default=0.0),
        "max_rank": max((c.max_rank for c in window), default=0),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "spectra_s": wl.spectra_s,
        "oracle_apply_s": statistics.fmean(reference_s) if reference_s else 0.0,
        "env": {
            "nproc": os.cpu_count(),
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "openblas": np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version"),
            "blas_threads": blas_threads(),
            "env_vars": {v: os.environ.get(v) for v in ENV_VARS},
        },
    }
    if tracer:
        record["traced_times"] = traced_times
        record["layers"], record["span_self_s"] = layer_metrics(tracer, record, traced_times)
        if spans:
            tracer.write(spans)
    return record


def layer_metrics(tracer, record, traced_times):
    """Per-layer metrics of a traced run, ``{name: (value, unit)}``, and the
    self time per traced request of every span name."""
    from tracing import SETUP

    n = len(traced_times)
    requests = {i for _, _, _, _, i in tracer.spans if i != SETUP}
    per_request = tracer.totals(requests)
    in_setup = tracer.totals({SETUP})
    out = {}
    for name, unit, how, spans in LAYER_METRICS:
        if how == "setup":
            value = sum(in_setup[s][1] for s in spans if s in in_setup)
        else:
            col = {"calls": 0, "time": 1, "self": 2}[how]
            value = sum(per_request[s][col] for s in spans if s in per_request) / max(n, 1)
        out[name] = (value, unit)
    out["tensors.unfold_bytes"] = (sum(tracer.unfold_bytes[r] for r in requests) / max(n, 1), "bytes")
    ranks = [pair for r in requests for pair in tracer.round_ranks[r]]
    out["tensors.tt_round_rank_in_max"] = (max((a for a, _ in ranks), default=0), "count")
    out["tensors.tt_round_kept_ratio"] = (sum(b for _, b in ranks) / sum(a for a, _ in ranks) if ranks else 0.0, "ratio")
    out["solver.spectra_s"] = (record["spectra_s"], "s")
    out["solver.oracle_apply_s"] = (record["oracle_apply_s"], "s")
    covered = sum(row[2] for row in per_request.values())
    out["trace.coverage"] = (covered / sum(traced_times) if traced_times else 0.0, "ratio")
    untraced = record["request_times"]
    overhead = statistics.median(traced_times) / statistics.median(untraced) if traced_times and untraced else 0.0
    out["trace.overhead"] = (overhead, "ratio")
    return out, {name: row[2] / max(n, 1) for name, row in per_request.items()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--spans", default=None, help="write the spans of a traced run here")
    args = p.parse_args(argv)

    def ready():
        print("READY", flush=True)
        if args.setup_only:
            sys.exit(0)

    record = run(args.workload, args.seed, args.seconds, bool(args.trace), args.size, ready, args.spans)
    print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
