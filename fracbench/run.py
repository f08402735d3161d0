"""fracsum benchmark: one workload per process, closed loop, checked requests.

Usage::

    python3 fracbench/run.py --workload dense-sweep --seed 1 --seconds 20 --trace 0
    python3 fracbench/run.py --compare parent.jsonl change.jsonl

A run starts the workload in a child process (``worker.py``) with the BLAS
thread variables cleared, so the library's default thread policy is what is
measured.  With ``--trace 0`` it first repeats the set-up in
``SETUP_REPEATS - 1`` throwaway processes and reports the median set-up time.
It prints every metric by name with its unit, then, as the last line, one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; ``--out`` appends the full record (environment included) as a
JSON line, which is what ``--compare`` reads.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

SETUP_REPEATS = 3
THREAD_VARS = ("FRACSUM_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
# glibc's dynamic trim and mmap thresholds made one process alternate between
# 0.33 s and 0.7 s lowrank-3d requests, and another not, depending on where
# the solve's 2 MB temporaries landed.  Pinning both keeps freed memory in the
# heap, so every request runs in the steady state the warm-up reached.
ALLOCATOR = {"MALLOC_MMAP_THRESHOLD_": str(32 * 2**20), "MALLOC_TRIM_THRESHOLD_": str(2**30)}
TIMEOUT_S = 170  # the whole run must end within 180 s


def _worker_cmd(args, setup_only: bool, spans=None):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size]
    if setup_only:
        cmd.append("--setup-only")
    if spans:
        cmd += ["--spans", spans]
    return cmd


def _spawn(cmd, env, deadline):
    """Start a worker; return (seconds from start to READY, last stdout line)."""
    start = time.perf_counter()
    ready, last = None, b""
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, bufsize=0, env=env, cwd=ROOT) as proc:
        try:
            while True:
                remaining = deadline - time.perf_counter()
                if remaining <= 0 or not select.select([proc.stdout], [], [], remaining)[0]:
                    raise subprocess.TimeoutExpired(cmd, TIMEOUT_S)
                line = proc.stdout.readline()
                if not line:
                    break
                if ready is None and line.strip() == b"READY":
                    ready = time.perf_counter() - start
                elif line.strip():
                    last = line
            proc.wait(timeout=max(deadline - time.perf_counter(), 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise SystemExit("fracbench: worker timed out") from None
    if proc.returncode != 0 or ready is None:
        raise SystemExit(f"fracbench: worker exited with code {proc.returncode}")
    return ready, last.decode()


def tail(times):
    """Highest percentile with at least ten samples beyond it, never below the median.

    Returns ``(value, percentile)``; percentiles interpolate linearly.
    """
    import numpy as np

    pct = max(50.0, 100.0 * (1.0 - 10.0 / len(times)))
    return float(np.percentile(times, pct)), pct


def measure(args) -> dict:
    """Run one workload from the command-line arguments; return the full record."""
    deadline = time.perf_counter() + TIMEOUT_S
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS} | ALLOCATOR
    setups = []
    if not args.trace:
        for _ in range(SETUP_REPEATS - 1):
            setups.append(_spawn(_worker_cmd(args, setup_only=True), env, deadline)[0])
    spans = None
    if args.trace:
        os.makedirs(os.path.join(ROOT, ".fracbench"), exist_ok=True)
        spans = os.path.join(ROOT, ".fracbench", f"spans-{args.workload}-seed{args.seed}.tsv")
    ready, last = _spawn(_worker_cmd(args, setup_only=False, spans=spans), env, deadline)
    setups.append(ready)
    rec = json.loads(last)
    times = rec["request_times"]
    if not times:
        raise SystemExit(f"fracbench: no request of {args.workload} seed {args.seed} succeeded: {rec['failures'][:1]}")
    p_tail, pct = tail(times)
    rec["setup_times"] = setups
    rec["tail_percentile"] = pct
    rec["samples"] = len(times)
    rec["commit"] = _git_commit()
    if args.trace:
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in rec["layers"].items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "request_s_p50": {"value": statistics.median(times), "unit": "s"},
            "request_s_tail": {"value": p_tail, "unit": "s"},
            "requests_per_s": {"value": len(times) / sum(times), "unit": "1/s"},
            "rel_error_max": {"value": rec["rel_error_max"], "unit": "ratio"},
            "rel_bound_max": {"value": rec["rel_bound_max"], "unit": "ratio"},
            "max_rank": {"value": rec["max_rank"], "unit": "count"},
            "peak_rss_mb": {"value": rec["peak_rss_mb"], "unit": "MB"},
        }
    rec["result"] = {
        "correct": rec["failed"] == 0,
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": metrics,
    }
    return rec


def _git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return res.stdout.strip() or None


def report(rec) -> None:
    """Print the record for a reader; the result JSON follows on the last line."""
    res = rec["result"]
    tag = f"{rec['workload']} seed={rec['seed']}"
    for failure in rec["failures"]:
        print(f"FAIL {tag}: {failure}")
    env = rec["env"]
    print(f"# {tag} trace={rec['trace']} nproc={env['nproc']} python={env['python']} numpy={env['numpy']} "
          f"openblas={env['openblas']} blas_threads={env['blas_threads']} commit={rec['commit']}")
    print(f"# environment of the worker: {env['env_vars']}")
    for name, m in res["metrics"].items():
        print(f"{name:32s} {m['value']:.6g} {m['unit']}")
    if rec["trace"]:
        print("# self time per traced request, by span:")
        for name, value in sorted(rec["span_self_s"].items(), key=lambda kv: -kv[1]):
            print(f"#   {name:30s} {value:.6g} s")
    else:
        print(f"{'request_s_tail':32s} is p{rec['tail_percentile']:.1f} of {rec['samples']} requests")
    print(f"{'fail_ratio':32s} {res['failed'] / res['attempted']:.6g} ratio")


def main(argv=None) -> int:
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description="fracsum benchmark")
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny: a seconds-long smoke configuration")
    p.add_argument("--out", default=None, help="append the full record as one JSON line")
    p.add_argument("--compare", nargs=2, metavar=("BASE", "CHANGE"), help="compare two files written by --out")
    args = p.parse_args(argv)

    if args.compare:
        from compare import compare

        return compare(*args.compare, os.path.join(ROOT, "BENCHMARK.json"))
    if not args.workload:
        p.error("--workload is required")
    rec = measure(args)
    if args.out:
        with open(args.out, "a") as fh:
            fh.write(json.dumps(rec) + "\n")
    report(rec)
    print(json.dumps(rec["result"]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
