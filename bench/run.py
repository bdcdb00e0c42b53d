"""Host benchmark for the simulator: four workloads, end-to-end metrics
and a traced per-layer run.

    python3 bench/run.py [--workload NAME...] [--seed N] [--seconds S]
                         [--trace 0|1|SPANS.json] [--out OUT.json]
                         [--smoke] [--write-reference]

Each workload runs in a fresh worker process (``bench/worker.py``)
after several set-up-only processes, whose median set-up time is
``setup_s``.  Without ``--workload`` all four run one after another;
with one, the metrics of the last line are that workload's, otherwise
they are keyed by workload.
``--trace 1`` (or a path, which also receives the spans as a Chrome
trace with a per-layer table) reports the per-layer metrics instead of
the end-to-end ones.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
exit status is 0 only when every op's output was correct.

Nothing is written except ``--out``, the ``--trace`` path, and the
reference (``bench/reference.json``) under ``--write-reference``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
from statistics import median
from typing import Dict, List, Optional

from common import REFERENCE_PATH, ROOT, load_spec
from workloads import WORKLOADS, load_reference

WORKER = ROOT / "bench" / "worker.py"
#: Set-up samples per measured run (the measured run is one of them).
SETUP_SAMPLES = 5
#: A worker that takes longer than this is killed (a run must end within
#: three minutes).
WORKER_TIMEOUT_S = 150


def run_worker(args: List[str]) -> Dict:
    """Run one worker to completion; its last stdout line is its
    result.  Raises ``RuntimeError`` when it fails."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]]
                               if env.get("PYTHONPATH") else []))
    proc = subprocess.Popen(
        [sys.executable, str(WORKER)] + args, cwd=str(ROOT), env=env,
        stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"worker {' '.join(args)} timed out")
    finally:
        # also when this process is being terminated (the SIGTERM
        # handler at the bottom of this file raises SystemExit)
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker {' '.join(args)} exited with "
                           f"status {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(name: str, args, traced: bool) -> Dict:
    common = ["--workload", name, "--seed", str(args.seed),
              "--seconds", str(args.seconds)]
    if args.smoke:
        common.append("--smoke")
    setups = []
    if not traced and not args.smoke:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(run_worker(common + ["--setup-only"])["setup_s"])
    extra = ["--trace", "1" if traced else "0"]
    if traced and args.trace not in ("0", "1"):
        extra.append("--events")
    if args.write_reference:
        extra.append("--record")
    doc = run_worker(common + extra)
    setups.append(doc["setup_s"])
    doc["setup_samples"] = setups
    if not traced:
        doc["metrics"]["setup_s"] = {"value": median(setups), "unit": "s",
                                     "n": len(setups), "min": min(setups),
                                     "max": max(setups)}
    return doc


def provenance(seed: int) -> Dict:
    sys.path.insert(0, str(ROOT / "src"))
    from repro.observability.runinfo import git_info

    info = {"seed": seed, "python": platform.python_version(),
            "nproc": os.cpu_count()}
    info.update(git_info(str(ROOT)))
    return info


def print_metrics(name: str, doc: Dict) -> None:
    print(f"{name}: {doc['attempted']} ops, {doc['failed']} failed, "
          f"{len(doc['passes'])} passes")
    for metric, entry in doc["metrics"].items():
        value = entry["value"]
        text = "-" if value is None else f"{value:.6g}"
        notes = []
        if entry.get("min") is not None:
            notes.append(f"n={entry['n']}, min {entry['min']:.6g}, "
                         f"max {entry['max']:.6g}")
        if entry.get("raw") is not None:
            notes.append(f"host time {entry['raw']:.6g}")
        notes = f"  ({'; '.join(notes)})" if notes else ""
        print(f"  {metric:<28} {text:>14} {entry['unit']}{notes}")
    for failure in doc.get("failures", []):
        print(f"  FAILED {failure}")


def write_trace(path: str, docs: Dict[str, Dict]) -> None:
    events = []
    for pid, (name, doc) in enumerate(docs.items()):
        events.append({"name": "process_name", "ph": "M", "pid": pid,
                       "args": {"name": name}})
        for event in doc.pop("trace_events", []):
            event["pid"] = pid
            events.append(event)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"traceEvents": events,
                   "layers": {name: doc["layers"]
                              for name, doc in docs.items()}}, fh)


def main(argv: Optional[List[str]] = None) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"bench: no simulator source under {ROOT / 'src'}; run "
              f"from a full checkout", file=sys.stderr)
        return 2
    spec = load_spec()
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=list(WORKLOADS), nargs="+",
                        help="workloads to run (default: all four)")
    parser.add_argument("--seed", type=int, default=0)
    # BENCHMARK.json's command line passes --workload, --seed, --seconds
    # and --trace; a run started by hand takes run_seconds from there
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"],
                        help="how long each workload measures "
                             "(default: %(default)s, run_seconds in "
                             "BENCHMARK.json)")
    parser.add_argument("--trace", default="0",
                        help="0, 1, or a file for the spans")
    parser.add_argument("--out", help="write the full result here")
    parser.add_argument("--smoke", action="store_true",
                        help="one short pass per workload")
    parser.add_argument("--write-reference", action="store_true",
                        help="record every op's outcome into the "
                             "reference instead of checking it")
    args = parser.parse_args(argv)
    # outcomes are deterministic, so one short pass records them all
    args.smoke = args.smoke or args.write_reference
    traced = args.trace != "0"
    names = args.workload or list(WORKLOADS)
    wanted = [m["name"] for m in spec["per_layer" if traced
                                      else "end_to_end"]]

    started_load = os.getloadavg()
    docs = {}
    for name in names:
        try:
            docs[name] = run_workload(name, args, traced)
        except RuntimeError as exc:
            print(f"bench: {exc}", file=sys.stderr)
            return 2
        print_metrics(name, docs[name])

    if args.write_reference:
        # keys are "<workload>/<program>/<config>"; other workloads'
        # entries are kept
        outcomes = {}
        if REFERENCE_PATH.exists():
            outcomes = {key: value for key, value
                        in load_reference(REFERENCE_PATH).items()
                        if key.split("/")[0] not in docs}
        for doc in docs.values():
            outcomes.update(doc["outcomes"])
        with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
            json.dump(outcomes, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {len(outcomes)} reference outcomes to "
              f"{REFERENCE_PATH}")
    if traced and args.trace != "1":
        write_trace(args.trace, docs)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(dict(provenance(args.seed), traced=traced,
                           loadavg_start=started_load,
                           loadavg_end=os.getloadavg(),
                           workloads=docs), fh, indent=1)
            fh.write("\n")

    def picked(doc):
        return {m: {"value": doc["metrics"][m]["value"],
                    "unit": doc["metrics"][m]["unit"]} for m in wanted}

    result = {
        "correct": all(doc["failed"] == 0 for doc in docs.values()),
        "attempted": sum(doc["attempted"] for doc in docs.values()),
        "failed": sum(doc["failed"] for doc in docs.values()),
        "metrics": (picked(docs[names[0]]) if len(names) == 1 else
                    {name: picked(doc) for name, doc in docs.items()}),
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    # a terminated runner unwinds, so run_worker kills its worker
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    sys.exit(main())
