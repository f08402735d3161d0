"""Tests of the benchmark itself: tiny configurations, the gates and tracing."""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import worker  # noqa: E402
from compare import verdict  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, digest  # noqa: E402

fs = worker.import_library()

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)

SCALED = {
    "dense-sweep": lambda out, s: (out[0], [(x * s, r) for x, r in out[1]]),
    "tt-highd": lambda out, s: (fs.TTTensor((s * out[0].carriages[0],) + out[0].carriages[1:]), out[1]),
    "lowrank-3d": lambda out, s: (out[0], tuple((x * s, r) for x, r in out[1])),
    "expsum-sweep": lambda out, s: [(es, v * s, b) for es, v, b in out],
}


def _run(*args, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "fracbench", "run.py"), *map(str, args)]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=cwd)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_reports_every_metric(workload, trace):
    res = _run("--workload", workload, "--seed", 3, "--seconds", 0.3, "--trace", trace, "--size", "tiny")
    assert res.returncode == 0, res.stderr
    result = json.loads(res.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        if not trace:
            assert result["metrics"][m["name"]]["value"] > 0


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_gate_rejects_scaled_solution(workload):
    wl = WORKLOADS[workload](fs, "tiny")
    wl.setup(5)
    inp = wl.make_input(0)
    out = wl.request(inp)
    assert wl.check(inp, out).ok
    assert not wl.check(inp, SCALED[workload](out, 1.0 + 1e-3)).ok


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_and_untraced_results_are_bit_identical(workload):
    wl = WORKLOADS[workload](fs, "tiny")
    wl.setup(7)
    inp = wl.make_input(1)
    plain = digest(wl.outputs(wl.request(inp)))
    tracer = Tracer()
    originals = (fs.solve_dense, fs.solver.tt_round, fs.CPTensor.to_dense, fs.expsum.evaluate)
    with tracer.recording(1):
        traced = digest(wl.outputs(wl.request(inp)))
    assert traced == plain
    assert tracer.spans and all(span[4] == 1 for span in tracer.spans)
    assert (fs.solve_dense, fs.solver.tt_round, fs.CPTensor.to_dense, fs.expsum.evaluate) == originals


def test_self_time_excludes_children():
    tracer = Tracer()
    tracer.spans = [("outer", 0.0, 10.0, None, 0), ("inner", 2.0, 5.0, 0, 0), ("inner", 6.0, 7.0, 0, 0)]
    assert tracer.self_times() == [6.0, 3.0, 1.0]
    assert tracer.totals({0})["inner"] == [2, 4.0, 4.0]


def test_compare_verdicts():
    base = [1.00, 1.02, 0.98, 1.01, 0.99]
    assert verdict(base, [1.5 * b for b in base], 0.2, lower_is_better=True)[0] == "worse"
    assert verdict(base, [0.5 * b for b in base], 0.2, lower_is_better=True)[0] == "better"
    assert verdict(base, [1.05 * b for b in base], 0.2, lower_is_better=True)[0] == "same"
    assert verdict(base, [0.5 * b for b in base], 0.2, lower_is_better=False)[0] == "worse"


def test_refuses_to_run_without_library_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "fracbench", ignore=shutil.ignore_patterns("__pycache__"))
    res = _run("--workload", "expsum-sweep", "--seed", 1, "--seconds", 1, "--trace", 0, "--size", "tiny", cwd=tmp_path)
    assert res.returncode != 0
    assert '"metrics"' not in res.stdout
