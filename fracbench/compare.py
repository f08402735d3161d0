"""Compare two result sets written by ``run.py --out``.

For every workload and end-to-end metric it prints both medians, their
quartiles, the change of the medians as a share of the base median, and a
verdict against the metric's bound in ``BENCHMARK.json``:

* ``worse`` -- the change's median is worse than the base's by more than the bound;
* ``better`` -- it is better by more than the bound;
* ``unresolved`` -- the base's own quartile spread exceeds the bound, and not
  every run of the change beats every run of the base;
* ``same`` -- otherwise.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict


def load(path):
    """{(workload, metric): [values]} over the untraced records of a file."""
    out = defaultdict(list)
    with open(path) as fh:
        for line in fh:
            rec = json.loads(line)
            if rec["trace"]:
                continue
            for name, m in rec["result"]["metrics"].items():
                out[(rec["workload"], name)].append(m["value"])
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base, change, bound, lower_is_better):
    """Classify the change of medians against the bound (see the module docstring)."""
    b1, b2, b3 = quartiles(base)
    c2 = statistics.median(change)
    sign = 1.0 if lower_is_better else -1.0
    worse_by = sign * (c2 - b2) / abs(b2) if b2 else 0.0
    if worse_by > bound:
        return "worse", worse_by
    all_better = all(sign * c < sign * b for c in change for b in base)
    if (b3 - b1) / abs(b2 or 1.0) > bound and not all_better:
        return "unresolved", worse_by
    if -worse_by > bound:
        return "better", worse_by
    return "same", worse_by


def compare(base_path, change_path, spec_path) -> int:
    """Print one row per workload and metric; return 1 if any metric is worse."""
    with open(spec_path) as fh:
        spec = {m["name"]: m for m in json.load(fh)["end_to_end"]}
    base, change = load(base_path), load(change_path)
    print(f"{'workload':14s} {'metric':16s} {'base median [q1, q3]':36s} {'change median [q1, q3]':36s} {'worse by':>9s} verdict")
    worse = False
    for key in sorted(set(base) & set(change)):
        workload, name = key
        if name not in spec:
            continue
        m = spec[name]
        kind, worse_by = verdict(base[key], change[key], m["bound"], m["better"] == "lower")
        worse |= kind == "worse"
        cols = []
        for values in (base[key], change[key]):
            q1, q2, q3 = quartiles(values)
            cols.append(f"{q2:.5g} [{q1:.5g}, {q3:.5g}] {m['unit']} n={len(values)}")
        print(f"{workload:14s} {name:16s} {cols[0]:36s} {cols[1]:36s} {worse_by:+9.1%} {kind}")
    return 1 if worse else 0
