"""Compare two sets of benchmark runs.

    python3 bench/compare.py DIR_A DIR_B

Each directory holds the ``--out`` documents of at least five untraced
runs of ``bench/run.py`` (one seed each).  The tool prints one row per
workload and end-to-end metric with each side's median and quartiles,
the change of B against A, and a verdict from the metric's direction
and bound in ``BENCHMARK.json``:

* ``unresolved`` when either side's spread (quartile distance over
  median) exceeds the bound, unless every run of one side beats every
  run of the other;
* ``worse`` when B's median is worse than A's by more than the bound;
* ``better`` when it is better by more than the bound;
* ``same`` otherwise.

Only the pairs in :data:`common.GATED` get a row; the runner reports
every metric on every workload, but the others repeat a gated row.

Every workload also gets a ``failed_frac`` row (failed ops over
attempted ops, worst run of each side), whose bound is any increase.
When a run of B had failed ops, every row of its workload is ``worse``:
a speed-up does not count when ops fail.  When a run of A had failed
ops, A is no baseline and the tool refuses to compare.

The exit status is 1 when any row is worse, 2 on unusable input.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from pathlib import Path
from statistics import quantiles
from typing import Dict, List, Optional

from common import gated, load_spec

MIN_RUNS = 5
#: Width of a median-and-quartiles column.
WIDTH = 42


def collect(directory: str) -> Dict[tuple, List[float]]:
    """``(workload, metric) -> values`` over the untraced run documents
    in ``directory``; ``(workload, "failed_frac")`` holds each run's
    failed ops over attempted ops."""
    values: Dict[tuple, List[float]] = defaultdict(list)
    for path in sorted(Path(directory).glob("*.json")):
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        if doc.get("traced"):
            continue
        for workload, result in doc["workloads"].items():
            values[(workload, "failed_frac")].append(
                result["failed"] / result["attempted"])
            for metric, entry in result["metrics"].items():
                if metric != "failed_frac" and entry.get("value") is not None:
                    values[(workload, metric)].append(entry["value"])
    return values


def verdict(a: List[float], b: List[float], better: str,
            bound: float) -> tuple:
    """``(verdict, change)``; ``change`` is B's median against A's,
    positive when B is better."""
    qa, qb = quantiles(a, n=4), quantiles(b, n=4)
    sign = 1 if better == "higher" else -1
    change = sign * (qb[1] - qa[1]) / qa[1]
    spread = max((qa[2] - qa[0]) / qa[1], (qb[2] - qb[0]) / qb[1])
    b_wins = all(sign * (y - x) > 0 for x in a for y in b)
    a_wins = all(sign * (x - y) > 0 for x in a for y in b)
    if spread > bound and not (a_wins or b_wins):
        return "unresolved", change
    if change < -bound:
        return "worse", change
    if change > bound:
        return "better", change
    return "same", change


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    side_a, side_b = collect(argv[0]), collect(argv[1])
    metrics = load_spec()["end_to_end"]
    workloads = sorted({w for w, _ in side_a} | {w for w, _ in side_b})
    for workload in workloads:
        for name in ["failed_frac"] + [m["name"] for m in metrics
                                       if gated(m["name"], workload)]:
            runs = (len(side_a.get((workload, name), [])),
                    len(side_b.get((workload, name), [])))
            if min(runs) < MIN_RUNS:
                print(f"compare: {workload} {name}: need at least "
                      f"{MIN_RUNS} runs per side, have {runs[0]} and "
                      f"{runs[1]}", file=sys.stderr)
                return 2
        if max(side_a[(workload, "failed_frac")]) > 0:
            print(f"compare: {workload}: a run of {argv[0]} had failed "
                  f"ops, so it is no baseline", file=sys.stderr)
            return 2

    print(f"{'workload':<13} {'metric':<15} {'A median [q1, q3]':<{WIDTH}} "
          f"{'B median [q1, q3]':<{WIDTH}} {'change':>8}  verdict")

    def cell(values):
        q1, med, q3 = quantiles(values, n=4)
        return f"{med:.5g} [{q1:.5g}, {q3:.5g}] n={len(values)}"

    worse = False
    for workload in workloads:
        failed = max(side_b[(workload, "failed_frac")])
        for metric in metrics:
            if not gated(metric["name"], workload):
                continue
            key = (workload, metric["name"])
            a, b = side_a[key], side_b[key]
            result, change = verdict(a, b, metric["better"],
                                     metric["bound"])
            if failed:
                result = "worse"
            worse = worse or result == "worse"
            print(f"{workload:<13} {metric['name']:<15} {cell(a):<{WIDTH}} "
                  f"{cell(b):<{WIDTH}} {change:>+8.1%}  {result} "
                  f"(bound {metric['bound']:.0%})")
        print(f"{workload:<13} {'failed_frac':<15} "
              f"{'max 0':<{WIDTH}} {f'max {failed:.4g}':<{WIDTH}} {'':>8}  "
              f"{'worse' if failed else 'same'} (bound: any increase)")
        worse = worse or failed > 0
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
