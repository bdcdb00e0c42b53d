"""Run one benchmark workload in this process and print its result.

``bench/run.py`` starts this script once per set-up sample and once
per measured run, with ``PYTHONPATH`` pointing at ``src``; the last
line of standard output is one JSON document.  Set-up time is counted
from the top of this file, before anything from ``repro`` is imported.
"""

import time

STARTED = time.perf_counter()

import os  # noqa: E402

# One CPU for every thread of this process: the interpreter lock lets
# only one run Python at a time anyway, and the host-speed probe must
# run on the CPU the simulator runs on (it runs on its own thread, and
# on serve-warm's event loop thread, while ops run on other threads).
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

from common import HostSpeed, probe  # noqa: E402

FIRST_PROBE = (STARTED, probe())

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from statistics import geometric_mean, median  # noqa: E402
from typing import Dict, List, Optional  # noqa: E402

from common import REFERENCE_PATH, percentile, summary  # noqa: E402
from tracing import OP_LAYER, Tracer  # noqa: E402
from workloads import WORKLOADS, load_reference  # noqa: E402

#: Units of the end-to-end metrics; ``BENCHMARK.json`` lists the ones
#: the benchmark gates on.
UNITS = {
    "instr_per_s": "instr/s", "setup_s": "s", "peak_rss_mb": "MB",
    "saturation_rps": "1/s", "latency_p50_ms": "ms",
    "failed_frac": "fraction",
}

#: Layer time metrics: metric -> the ``(layer, span names)`` whose self
#: time it sums (``None`` = every span of the layer).
LAYER_TIMES = {
    "classfile.parse_s": ("classfile", None),
    "workloads.author_s": ("workloads", None),
    "instrument.instrument_s": ("instrument", None),
    "classloader.load_s": ("classloader", None),
    "verifier.verify_s": ("verifier", None),
    "analysis.analyze_s": ("analysis", None),
    "jit.compile_s": ("jit", None),
    "jvm.execute_s": ("jvm", None),
    "jvmti.dispatch_s": ("jvmti", None),
    "service.reset_s": ("service", ("WarmVM._reset", "restore_statics",
                                    "Heap.reset")),
    "harness.validate_s": ("harness", None),
}

#: VM counters reported per pass (see ``tracing.vm_counters``).
LAYER_COUNTS = (
    "classloader.classes_loaded", "verifier.methods_verified",
    "analysis.methods_analyzed", "jit.templates_translated",
    "jit.template_entries", "jit.osr_entries", "jit.deopts",
    "jvm.instructions", "jvm.method_invocations",
    "jvmti.events_dispatched", "jni.native_invocations",
    "jni.jni_invocations", "scheduler.context_switches",
    "scheduler.io_blocks",
)


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name == "jvm.ns_per_instr":
        return "ns"
    if name.endswith("_ratio") or name.startswith("trace."):
        return "ratio"
    return "count"


def measure(workload, seconds: float, tracer: Optional[Tracer]) -> List:
    """Closed-loop passes for the budget: as many as come closest to it,
    so a workload with long passes neither stops well short of it nor
    runs a whole pass past it.

    A traced run starts with an untraced warm-up pass, then alternates
    traced and untraced passes, so ``trace.overhead`` compares passes
    run under the same conditions.
    """
    budget = workload.pass_budget(seconds)
    fewest = (2 if workload.smoke else 3) if tracer is not None else 1
    passes = []
    started = time.perf_counter()
    while True:
        index = len(passes)
        traced = tracer is not None and index % 2 == 1
        if traced:
            tracer.install()
        pass_started = time.perf_counter()
        try:
            ops = workload.run_pass(index, tracer if traced else None)
        except Exception as exc:  # noqa: BLE001 - recorded as a failed op
            traceback.print_exc()
            ops = [{"key": f"{workload.name}/pass-{index}",
                    "seconds": None, "ok": False, "instructions": 0,
                    "detail": f"{type(exc).__name__}: {exc}"}]
        finally:
            if traced:
                tracer.uninstall()
        passes.append({"index": index, "traced": traced, "ops": ops})
        now = time.perf_counter()
        if len(passes) >= fewest and (
                budget is None
                or now + (now - pass_started) / 2 - started >= budget):
            return passes


def op_row(op) -> List:
    return [op["key"], op["start"] - STARTED, op["seconds"], op["factor"]]


def timed(ops) -> List[Dict]:
    return [op for op in ops if op["seconds"] is not None]


def op_seconds(op, scaled: bool) -> float:
    return op["seconds"] * op["factor"] if scaled else op["seconds"]


def pass_rates(passes, scaled: bool = True) -> Dict[str, List[float]]:
    """Per pass: instructions and ops per second of op time."""
    rates = {"instr_per_s": [], "saturation_rps": []}
    for p in passes:
        ops = timed(p["ops"])
        seconds = sum(op_seconds(op, scaled) for op in ops)
        if seconds:
            rates["instr_per_s"].append(
                sum(op["instructions"] for op in ops) / seconds)
            rates["saturation_rps"].append(len(ops) / seconds)
    return rates


def latency_p50_ms(ops, scaled: bool = True) -> Optional[float]:
    """Median latency of the open loop's requests; a failed request
    counts as +inf (``None`` when half of them failed)."""
    latencies = [op_seconds(op, scaled) * 1000.0 if op["ok"]
                 else math.inf for op in ops]
    value = median(latencies) if latencies else math.inf
    return None if math.isinf(value) else value


def program_p50_ms(ops, scaled: bool = True) -> Optional[float]:
    """A batch workload's ``latency_p50_ms``: the geometric mean over
    programs of each program's median op latency.

    A plain median over a fixed mix of programs is the time of the
    program in the middle, and jumps between programs whose times are
    close; each program's median is steady.
    """
    by_program: Dict[str, List[float]] = {}
    for op in timed(ops):
        if op["ok"]:
            by_program.setdefault(op["key"], []).append(
                op_seconds(op, scaled) * 1000.0)
    medians = [median(values) for values in by_program.values()]
    return geometric_mean(medians) if medians else None


def end_to_end(passes, open_ops, setup: Dict) -> Dict:
    """The end-to-end metrics in reference-host time, each with its
    unscaled host-time value as ``raw``."""
    metrics = {}
    for scaled in (True, False):
        rates = pass_rates(passes, scaled)
        for name, series in rates.items():
            if scaled:
                metrics[name] = summary(series)
            else:
                metrics[name]["raw"] = median(series)
    if open_ops:
        latency, n = latency_p50_ms, len(open_ops)
        latency_ops = open_ops
    else:
        latency_ops = [op for p in passes for op in p["ops"]]
        latency, n = program_p50_ms, len(timed(latency_ops))
    metrics["latency_p50_ms"] = {"value": latency(latency_ops), "n": n,
                                 "raw": latency(latency_ops, scaled=False)}
    metrics["setup_s"] = {"value": setup["scaled"], "raw": setup["raw"]}
    metrics["peak_rss_mb"] = {"value": resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    return {name: dict(value, unit=UNITS[name])
            for name, value in metrics.items()}


def per_layer(workload, passes, open_ops, tracer: Tracer,
              totals: Dict) -> Dict:
    """Per-layer metrics over the traced ops, per pass; ``totals`` is
    ``tracer.totals()``."""
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    if len(untraced) > 1:
        untraced = untraced[1:]  # the first pass warms the process up
    traced_ops = sum(len(timed(p["ops"])) for p in traced) + len(open_ops)
    per_pass = traced_ops / workload.ops_per_pass
    counts = tracer.counts

    def self_s(layer, names=None) -> float:
        return sum(ns for (span_layer, name), (ns, _) in totals.items()
                   if span_layer == layer
                   and (names is None or name in names)) / 1e9 / per_pass

    def spans(layer, name) -> int:
        return totals.get((layer, name), (0, 0))[1]

    metrics = {name: self_s(*kinds) for name, kinds in LAYER_TIMES.items()}
    for name in LAYER_COUNTS:
        metrics[name] = counts.get(name, 0) / per_pass
    metrics["classfile.classes_parsed"] = \
        spans("classfile", "load_class") / per_pass
    memo_calls = spans("instrument", "instrument_archives_cached")
    metrics["instrument.memo_hit_ratio"] = (
        1 - spans("instrument", "StaticInstrumenter.instrument_archives")
        / memo_calls if memo_calls else None)
    instructions = counts.get("jvm.instructions", 0)
    metrics["jvm.ns_per_instr"] = (
        metrics["jvm.execute_s"] * per_pass * 1e9 / instructions
        if instructions else None)
    lookups = counts.get("jvm.ic_hits", 0) + counts.get("jvm.ic_misses", 0)
    metrics["jvm.ic_hit_ratio"] = (counts.get("jvm.ic_hits", 0) / lookups
                                   if lookups else None)
    served = [op for op in open_ops if op["ok"]]
    service = {
        "service.run_p50_ms": (median, [op["run_s"] for op in served]),
        "service.queue_wait_p50_ms": (median,
                                      [op["queue_s"] for op in served]),
        "service.latency_p95_ms": (
            lambda values: percentile(values, 95),
            [op["seconds"] for op in served]),
        "service.gen_lag_p99_ms": (lambda values: percentile(values, 99),
                                   [op["lag"] for op in open_ops]),
    }
    for name, (statistic, seconds) in service.items():
        metrics[name] = statistic(seconds) * 1000.0 if seconds else None
    metrics["service.warmup_s"] = getattr(workload, "warmup_s", None)
    metrics["trace.overhead"] = 1 - (
        median(pass_rates(traced)["instr_per_s"])
        / median(pass_rates(untraced)["instr_per_s"]))
    wall = tracer.op_wall_ns()
    uncovered = totals.get((OP_LAYER, "op"), (0, 0))[0]
    metrics["trace.coverage"] = (wall - uncovered) / wall
    return {name: {"value": value, "unit": layer_unit(name)}
            for name, value in sorted(metrics.items())}


def layer_table(totals: Dict, wall: int) -> Dict[str, Dict]:
    """Self time and share of op wall time per layer."""
    by_layer: Dict[str, int] = {}
    for (layer, _), (ns, _) in totals.items():
        by_layer[layer] = by_layer.get(layer, 0) + ns
    return {layer: {"self_s": ns / 1e9, "share": ns / wall}
            for layer, ns in sorted(by_layer.items(),
                                    key=lambda item: -item[1])}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--events", action="store_true",
                        help="include Chrome trace events (traced runs)")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--record", action="store_true",
                        help="record outcomes instead of checking them")
    args = parser.parse_args(argv)

    host = HostSpeed(FIRST_PROBE)
    if not args.trace:
        host.start()
    workload = WORKLOADS[args.workload](args.seed, args.smoke, host)
    workload.setup()
    setup_raw = time.perf_counter() - STARTED
    host.take()
    setup = {"raw": setup_raw, "scaled": setup_raw * host.factor(
        STARTED, STARTED + setup_raw)}
    try:
        if args.setup_only:
            doc = {"setup_s": setup["scaled"]}
        else:
            if not args.record:
                workload.reference = load_reference(REFERENCE_PATH)
            tracer = Tracer() if args.trace else None
            passes = measure(workload, args.seconds, tracer)
            open_ops = workload.finish(args.seconds, tracer)
            ops = [op for p in passes for op in p["ops"]] + open_ops
            for op in timed(ops):
                op["factor"] = host.factor(op["start"], op["end"])
            failures = [f"{op['key']}: {op['detail']}"
                        for op in ops if not op["ok"]]
            doc = {
                "workload": workload.name, "seed": args.seed,
                "traced": bool(args.trace), "setup_s": setup["scaled"],
                "attempted": len(ops), "failed": len(failures),
                "failures": failures[:20],
                "host_probe_ms": summary(
                    [seconds * 1000.0 for _, seconds in host.probes]),
                # [seconds since process start, probe seconds]
                "probes": [[taken - STARTED, seconds]
                           for taken, seconds in sorted(host.probes)],
                # [key, start, host seconds, speed factor] per timed op
                "passes": [{"index": p["index"], "traced": p["traced"],
                            "ops": [op_row(op) for op in timed(p["ops"])]}
                           for p in passes],
                # ... plus queue wait and generator lag per request
                "open_loop": [op_row(op) + [op["queue_s"], op["lag"]]
                              for op in timed(open_ops)],
            }
            if tracer is None:
                doc["metrics"] = end_to_end(passes, open_ops, setup)
            else:
                totals = tracer.totals()
                doc["metrics"] = per_layer(workload, passes, open_ops,
                                           tracer, totals)
                doc["layers"] = layer_table(totals, tracer.op_wall_ns())
                if args.events:
                    doc["trace_events"] = tracer.chrome_events()
            doc["metrics"]["failed_frac"] = {
                "value": len(failures) / len(ops),
                "unit": UNITS["failed_frac"]}
            if args.record:
                doc["outcomes"] = workload.outcomes
    finally:
        host.stop()
        workload.close()
    sys.stdout.write(json.dumps(doc) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
