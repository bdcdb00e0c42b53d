"""Tests of the host benchmark: ``python -m pytest bench/tests``."""

from __future__ import annotations

import asyncio
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import compare  # noqa: E402
from common import load_spec  # noqa: E402
from tracing import self_times  # noqa: E402
from workloads import open_loop  # noqa: E402


def run_bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
        cwd=str(cwd), capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and \
        lines[-1].startswith("{") else None
    return proc.returncode, result


def checkout(path, with_source=True):
    """A checkout of the benchmark alone under ``path``, with links to
    the simulator's source and the golden tables unless told not to."""
    path.mkdir(exist_ok=True)
    shutil.copy(ROOT / "BENCHMARK.json", path)
    shutil.copytree(BENCH, path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    if with_source:
        for name in ("src", "results"):
            (path / name).symlink_to(ROOT / name)
    return path


ALL = [w["name"] for w in load_spec()["workloads"]]


# The traced smoke run covers the two cheapest workloads: every workload
# reports per-layer metrics through the same code, and the four together
# would take the suite past a minute.
@pytest.mark.parametrize("trace,section,workloads", [
    ("0", "end_to_end", ALL),
    ("1", "per_layer", ["cold-start", "serve-warm"]),
])
def test_smoke_emits_every_metric_with_its_unit(trace, section, workloads):
    code, result = run_bench("--smoke", "--trace", trace,
                             "--workload", *workloads)
    assert code == 0
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    wanted = {m["name"]: m["unit"] for m in load_spec()[section]}
    assert set(result["metrics"]) == set(workloads)
    for metrics in result["metrics"].values():
        assert set(metrics) == set(wanted)
        for name, entry in metrics.items():
            assert entry["unit"] == wanted[name]
            assert isinstance(entry["value"], (int, float))


def test_tampered_reference_fails_the_run(tmp_path):
    root = checkout(tmp_path / "checkout")
    path = root / "bench" / "reference.json"
    reference = json.loads(path.read_text())
    key = next(k for k in reference if k.startswith("cold-start/jess/"))
    reference[key]["cycles"] += 1
    path.write_text(json.dumps(reference))
    out = tmp_path / "out.json"
    code, result = run_bench("--smoke", "--workload", "cold-start",
                             "--out", str(out), cwd=root)
    assert code != 0
    assert result["correct"] is False and result["failed"] == 1
    doc = json.loads(out.read_text())["workloads"]["cold-start"]
    assert doc["metrics"]["failed_frac"]["value"] > 0
    assert doc["failures"][0].startswith(key)


def test_refuses_to_run_without_the_simulator_source(tmp_path):
    checkout(tmp_path, with_source=False)
    code, result = run_bench("--workload", "cold-start", cwd=tmp_path)
    assert code != 0
    assert result is None


def test_self_time_subtracts_the_union_of_children():
    # root [0, 100) holds a [10, 40) with a grandchild [20, 30), and b
    # [35, 60) overlapping a (opened on another host thread); c [90,
    # 120) runs past the root's end
    starts = [0, 10, 20, 35, 90]
    ends = [100, 40, 30, 60, 120]
    parents = [-1, 0, 1, 0, 0]
    assert self_times(starts, ends, parents) == [
        100 - 50 - 10,  # covered: [10, 60) and [90, 100)
        30 - 10,
        10,
        25,
        30,
    ]


def test_open_loop_times_from_due_time_and_reports_lag():
    clock = {"now": 0.0}

    async def sleep(delay):
        wake = clock["now"] + delay
        await asyncio.sleep(0)
        clock["now"] = max(clock["now"], wake)

    async def issue(item, due):
        if item == "stall":
            clock["now"] += 0.35  # blocks the loop: later sends run late
        await asyncio.sleep(0)
        return item

    rows = asyncio.run(open_loop(
        [(0.0, "stall"), (0.1, "b"), (0.2, "c")], issue,
        clock=lambda: clock["now"], sleep=sleep))
    assert [row["result"] for row in rows] == ["stall", "b", "c"]
    assert [row["due"] for row in rows] == [0.0, 0.1, 0.2]
    assert [round(row["lag"], 9) for row in rows] == [0.0, 0.25, 0.15]
    assert [round(row["latency"], 9) for row in rows] == [0.35, 0.25, 0.15]


def write_runs(directory, failed=(), seed=0):
    """Five run documents of one workload with steady metrics; the
    runs numbered in ``failed`` had one failed op."""
    directory.mkdir()
    for run in range(5):
        metrics = {m["name"]: {"value": 100.0 + run + seed,
                               "unit": m["unit"]}
                   for m in load_spec()["end_to_end"]}
        doc = {"traced": False, "workloads": {"serve-warm": {
            "attempted": 50, "failed": int(run in failed),
            "metrics": metrics}}}
        (directory / f"{run}.json").write_text(json.dumps(doc))
    return str(directory)


def test_compare_grades_failed_ops_worse(tmp_path, capsys):
    a = write_runs(tmp_path / "a")
    assert compare.main([a, write_runs(tmp_path / "same", seed=1)]) == 0
    assert "worse" not in capsys.readouterr().out

    # B is as fast, but one run had a failed op
    assert compare.main([a, write_runs(tmp_path / "b", failed=[3])]) == 1
    rows = capsys.readouterr().out.splitlines()[1:]
    # setup_s, peak_rss_mb, saturation_rps, latency_p50_ms, failed_frac
    assert len(rows) == 5
    assert all(" worse (bound" in row for row in rows)

    # a baseline with failed ops is refused
    assert compare.main([write_runs(tmp_path / "c", failed=[0]), a]) == 2
