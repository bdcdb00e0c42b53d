"""Command-line interface.

::

    repro list                      # available workloads
    repro table1 [--scale N]        # regenerate Table I
    repro table2 [--scale N]        # regenerate Table II
    repro profile WORKLOAD [...]    # run one workload under one agent
    repro trace WORKLOAD [...]      # record a Chrome/Perfetto trace
    repro metrics FILE.jsonl [...]  # summarize exported metrics
    repro analyze [...]             # static analysis: verify, CHA,
                                    # native boundary, instr. linter
    repro bench [--scale N]         # time the suite, record host perf
    repro bench --compare BASE.json # gate on host-throughput regression
    repro runs list|show|diff|trend # query the run ledger
    repro report [RUN_ID|--latest]  # self-contained HTML report
    repro serve [--socket|--port]   # warm-VM pool behind a socket
    repro loadgen [--rps N] [...]   # open/closed-loop load generator

Observability never perturbs measurement: ``--trace``/``--metrics-out``
on ``table1``/``table2`` produce byte-identical tables (the trace and
metrics files are written on the side; notices go to stderr).

Every measuring invocation (``table1``/``table2``/``profile``/
``trace``/``bench``/``analyze``) also appends a run manifest — run id,
git SHA, host, resolved config, outcome — to the run ledger
(``.repro-runs/`` by default; ``--ledger-dir`` overrides,
``--no-ledger`` opts out).  The ledger is host-side bookkeeping: the
tables are bit-identical with it on or off.

``--tier {template,interp}`` (on table1/table2/profile/trace/bench)
selects the execution tier.  The template tier is the default and is
accounting-invariant: every simulated number is bit-identical to the
plain interpreter — only host throughput changes.

``--cores N`` (same commands) selects the simulated core count.  The
default, 1, is the paper's sequential single-CPU model and is
bit-identical to the goldens; N > 1 runs the deterministic preemptive
scheduler (see DESIGN.md §9).  ``--workloads`` restricts table1/table2
to a subset of the suite, e.g. the concurrency family
(``fj-kmeans``/``actors``/``reactors``).
"""

from __future__ import annotations

import argparse
import signal
import sys
import time
from typing import List, Optional

from repro.errors import ClassFileError, LedgerError, ServiceError
from repro.harness.config import AgentSpec, RunConfig
from repro.harness.overhead import build_table1
from repro.harness.report import render_table1, render_table2
from repro.harness.runner import execute
from repro.harness.statistics import build_table2
from repro.jit.policy import JitPolicy
from repro.jvm.machine import VMConfig
from repro.observability import (
    ObservabilityConfig,
    write_chrome_trace,
    write_folded,
    write_metrics_jsonl,
)
from repro.observability import ledger as ledger_module
from repro.observability import logging as obs_logging
from repro.observability.metrics import summarize_metrics
from repro.workloads import full_suite, get_workload, workload_names

log = obs_logging.get_logger("cli")

#: Agent vocabulary of ``--agent`` (kept sorted for error messages).
AGENT_NAMES = ("callchain", "ipa", "ipa-dynamic", "ipa-nocomp", "none",
               "offcpu", "spa")

#: Subcommands whose invocations are recorded in the run ledger.
LEDGER_COMMANDS = ("table1", "table2", "profile", "trace", "bench",
                   "analyze", "serve", "loadgen", "causal")


def _cmd_list(_args) -> int:
    for name in workload_names():
        workload = get_workload(name)
        print(f"{name:12s} {workload.description}")
    return 0


def _vm_config_from(args) -> VMConfig:
    """Map ``--tier`` to a :class:`VMConfig`.

    ``template`` (the default) runs the interpreter plus the template
    second tier; ``interp`` is the dispatch loop alone.  All simulated
    numbers are bit-identical between the two — the flag exists for
    host-throughput A/B runs and for ruling the tier out when
    debugging.
    """
    tier = getattr(args, "tier", "template")
    sanitize = getattr(args, "sanitize", "off")
    if getattr(args, "race_check", False):
        sanitize = "race"  # the cross-check needs the dynamic side
    return VMConfig(
        jit_policy=JitPolicy(
            template_tier=(tier == "template"),
            osr=(getattr(args, "osr", "on") == "on")),
        verify=getattr(args, "verify", "structural"),
        cores=getattr(args, "cores", 1),
        sanitize=sanitize)


def _add_tier_argument(subparser) -> None:
    subparser.add_argument(
        "--tier", choices=("template", "interp"), default="template",
        help=("execution tier: 'template' (interpreter + specialized-"
              "Python second tier, default) or 'interp' (dispatch loop "
              "only); simulated output is identical either way"))
    subparser.add_argument(
        "--osr", choices=("on", "off"), default="on",
        help=("on-stack replacement at interpreter loop backedges "
              "(default: on; only meaningful with --tier template); "
              "simulated output is identical either way — the switch "
              "exists for host-throughput A/B runs"))


def _add_cores_argument(subparser) -> None:
    subparser.add_argument(
        "--cores", type=_positive_int, default=1, metavar="N",
        help=("simulated CPU cores (default: 1, the paper's "
              "single-CPU sequential model; N > 1 runs the "
              "deterministic preemptive scheduler with per-core "
              "cycle clocks)"))


def _add_verify_argument(subparser) -> None:
    subparser.add_argument(
        "--verify", choices=("off", "structural", "typed"),
        default="structural",
        help=("bytecode verification at class load: 'off', "
              "'structural' (stack-discipline dataflow, default), or "
              "'typed' (abstract interpretation); host-side only — "
              "simulated numbers are identical across modes"))


def _add_sanitize_argument(subparser) -> None:
    subparser.add_argument(
        "--sanitize", choices=("off", "race"), default="off",
        help=("dynamic sanitizer: 'race' runs the happens-before "
              "vector-clock race detector alongside the run; "
              "host-side shadow state only — simulated numbers are "
              "identical with it on or off"))


def _observability_from(args) -> Optional[ObservabilityConfig]:
    trace_out = getattr(args, "trace", None)
    metrics_out = getattr(args, "metrics_out", None)
    if not trace_out and not metrics_out:
        return None
    return ObservabilityConfig(trace=bool(trace_out),
                               metrics=bool(metrics_out))


def _write_table_observability(args, captures) -> None:
    """Write side files; notices go to stderr (as structured log
    lines) so the table on stdout stays byte-identical with
    observability off."""
    captures = [doc for doc in (captures or []) if doc]
    if getattr(args, "trace", None):
        doc = write_chrome_trace(args.trace, captures)
        log.info("trace written", events=len(doc["traceEvents"]),
                 path=args.trace)
    if getattr(args, "metrics_out", None):
        records = [record for doc in captures
                   for record in doc.get("metrics", [])]
        count = write_metrics_jsonl(args.metrics_out, records)
        log.info("metrics written", records=count,
                 path=args.metrics_out)


def _artifacts_from(args, **extra) -> dict:
    """Side-file paths the run produced, for the manifest."""
    artifacts = {}
    if getattr(args, "trace", None):
        artifacts["trace"] = args.trace
    if getattr(args, "metrics_out", None):
        artifacts["metrics"] = args.metrics_out
    artifacts.update({kind: path for kind, path in extra.items()
                      if path})
    return artifacts


def _capture_metrics_summary(captures) -> Optional[list]:
    """Aggregate per-cell metrics records for the manifest snapshot."""
    records = [record for doc in (captures or []) if doc
               for record in doc.get("metrics", [])]
    return summarize_metrics(records) if records else None


def _table_workloads(args):
    """Workloads for a table command: the full suite, or the
    ``--workloads`` subset.  Unknown names raise
    :class:`~repro.errors.WorkloadError` naming the valid families —
    callers turn that into a clean exit-2 usage error."""
    names = getattr(args, "workloads", None)
    if not names:
        return full_suite(scale=args.scale)
    return [get_workload(name, scale=args.scale) for name in names]


def _reject_unknown_workloads(names) -> bool:
    """True, after logging a usage error that lists the valid
    families, when some name is not a registered workload."""
    valid = workload_names()
    unknown = [name for name in (names or []) if name not in valid]
    if unknown:
        log.error(f"unknown workload(s) {', '.join(sorted(unknown))}; "
                  f"valid families: {', '.join(sorted(valid))}")
    return bool(unknown)


def _collect_races(raw) -> dict:
    """``workload -> [race dicts]`` from a table's raw results,
    deduplicated per (class, field)."""
    races = {}
    for workload, results in sorted(raw.items()):
        seen = set()
        for result in results.values():
            for race in result.races:
                key = (race["class"], race["field"])
                if key not in seen:
                    seen.add(key)
                    races.setdefault(workload, []).append(race)
    return races


def _report_races(races_by_workload) -> int:
    """Log confirmed dynamic races (stderr — stdout tables stay
    byte-identical); returns the total count."""
    total = 0
    for workload, races in sorted(races_by_workload.items()):
        for race in races:
            total += 1
            log.error(
                "data race confirmed", workload=workload,
                field=f"{race['class']}.{race['field']}",
                scope=race["scope"],
                prior=(f"{race['prior']['op']} by "
                       f"{race['prior']['thread']} @cycle "
                       f"{race['prior']['cycles']}: "
                       + " <- ".join(race["prior"]["stack"])),
                current=(f"{race['current']['op']} by "
                         f"{race['current']['thread']} @cycle "
                         f"{race['current']['cycles']}: "
                         + " <- ".join(race["current"]["stack"])))
    return total


def _report_thread_deaths(deaths) -> bool:
    """Log uncaught-thread deaths (stderr); True when any occurred."""
    for workload, lines in sorted((deaths or {}).items()):
        for line in lines:
            log.error("workload thread died", workload=workload,
                      detail=line)
    return bool(deaths)


def _cmd_table1(args) -> int:
    if _reject_unknown_workloads(getattr(args, "workloads", None)):
        return 2
    table = build_table1(_table_workloads(args),
                         vm_config=_vm_config_from(args),
                         runs=args.runs, jobs=args.jobs,
                         observability=_observability_from(args))
    rendered = render_table1(table)
    print(rendered)
    _write_table_observability(args, table.captures)
    workloads = {}
    for row in table.time_rows + table.throughput_rows:
        workloads[row.benchmark] = {
            "value_original": row.value_original,
            "value_spa": row.value_spa,
            "value_ipa": row.value_ipa,
            "overhead_spa_percent": row.overhead_spa_percent,
            "overhead_ipa_percent": row.overhead_ipa_percent,
        }
    args.ledger_outcome = {
        "tables": {"table1": rendered},
        "workloads": workloads,
        "instructions": sum(result.instructions
                            for results in table.raw.values()
                            for result in results.values()),
        "metrics": _capture_metrics_summary(table.captures),
        "artifacts": _artifacts_from(args),
        "thread_deaths": table.thread_deaths or None,
        "races": _collect_races(table.raw) or None,
    }
    if _report_thread_deaths(table.thread_deaths):
        log.error("table1 FAILED: workload thread(s) died with "
                  "uncaught exceptions")
        return 1
    if _report_races(args.ledger_outcome["races"] or {}):
        log.error("table1 FAILED: data race(s) confirmed by the "
                  "sanitizer")
        return 1
    return 0


def _cmd_table2(args) -> int:
    if _reject_unknown_workloads(getattr(args, "workloads", None)):
        return 2
    table = build_table2(_table_workloads(args),
                         vm_config=_vm_config_from(args),
                         runs=args.runs, jobs=args.jobs,
                         observability=_observability_from(args),
                         boundary_check=args.boundary_check,
                         race_check=args.race_check)
    rendered = render_table2(table)
    print(rendered)
    _write_table_observability(args, table.captures)
    args.ledger_outcome = {
        "tables": {"table2": rendered},
        "workloads": {row.benchmark: {
            "percent_native": row.percent_native,
            "jni_calls": row.jni_calls,
            "native_method_calls": row.native_method_calls,
            "ground_truth_percent_native":
                row.ground_truth_percent_native,
        } for row in table.rows},
        "instructions": sum(result.instructions
                            for results in table.raw.values()
                            for result in results.values()),
        "metrics": _capture_metrics_summary(table.captures),
        "artifacts": _artifacts_from(args),
        "thread_deaths": table.thread_deaths or None,
        "races": _collect_races(table.raw) or None,
        "race_check": ({name: check.to_json()
                        for name, check in table.races.items()}
                       if table.races is not None else None),
    }
    if _report_thread_deaths(table.thread_deaths):
        log.error("table2 FAILED: workload thread(s) died with "
                  "uncaught exceptions")
        return 1
    if table.boundary is not None:
        # stderr, so the table on stdout stays byte-identical
        failed = False
        for name, check in table.boundary.items():
            log.info("boundary check", workload=name,
                     detail=check.summary())
            failed = failed or not check.ok
        if failed:
            log.error("boundary check FAILED: dynamically invoked "
                      "natives missing from the static analysis")
            return 1
    if table.races is not None:
        # stderr, so the table on stdout stays byte-identical
        failed = False
        for name, check in table.races.items():
            log.info("race check", workload=name,
                     detail=check.summary())
            failed = failed or not check.ok
        if failed:
            log.error("race check FAILED: confirmed race(s) the "
                      "static lockset analysis did not predict")
            return 1
    if _report_races(args.ledger_outcome["races"] or {}):
        log.error("table2 FAILED: data race(s) confirmed by the "
                  "sanitizer")
        return 1
    return 0


def _cmd_bench(args) -> int:
    from repro.harness.bench import (
        compare_bench,
        format_bench,
        read_bench,
        run_bench,
        write_bench,
    )

    doc = run_bench(scale=args.scale, tier=args.tier,
                    cores=getattr(args, "cores", 1),
                    osr=(getattr(args, "osr", "on") == "on"),
                    suite=getattr(args, "suite", "jvm98"))
    print(format_bench(doc))
    args.ledger_outcome = {
        "bench": doc,
        "instructions": doc["instructions"],
        "instructions_per_second": doc["instructions_per_second"],
        "workloads": {
            name: {"instructions_per_second":
                   row["instructions_per_second"]}
            for name, row in doc["per_workload"].items()},
        "artifacts": _artifacts_from(args, bench=args.output),
    }
    if args.output:
        write_bench(doc, args.output)
        print(f"wrote {args.output}")
    if args.compare:
        try:
            baseline = read_bench(args.compare)
        except OSError as exc:
            log.error("cannot read bench baseline",
                      path=args.compare, error=str(exc))
            return 2
        ok, lines = compare_bench(doc, baseline,
                                  args.max_regression)
        print("\n".join(lines))
        if not ok:
            return 1
    return 0


def _positive_int(text: str) -> int:
    """argparse type: an integer >= 1 (scale, runs, jobs).

    Rejecting zero/negative values here gives a one-line usage error
    instead of a crash deep inside workload construction or the
    harness.
    """
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {value}")
    return value


def _positive_float(text: str) -> float:
    """argparse type: a float > 0 (rps, duration, timeout)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    if value <= 0:
        raise argparse.ArgumentTypeError(
            f"must be a positive number, got {value}")
    return value


def _non_negative_int(text: str) -> int:
    """argparse type: an integer >= 0 (queue limit; 0 = unbounded)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"must be >= 0, got {value}")
    return value


def _agent_spec(name: str) -> AgentSpec:
    """argparse type for ``--agent``: unknown names exit 2 with the
    valid-agent list (a usage error, not a traceback)."""
    if name == "none":
        return AgentSpec.none()
    if name == "spa":
        return AgentSpec.spa()
    if name == "ipa":
        return AgentSpec.ipa()
    if name == "ipa-dynamic":
        return AgentSpec.ipa(instrumentation="dynamic")
    if name == "ipa-nocomp":
        return AgentSpec.ipa(compensate=False)
    if name == "callchain":
        return AgentSpec.callchain()
    if name == "offcpu":
        return AgentSpec.offcpu()
    raise argparse.ArgumentTypeError(
        f"unknown agent {name!r} (valid: {', '.join(AGENT_NAMES)})")


def _blocked_lines(result) -> List[str]:
    """Human lines for the on-CPU/blocked split (empty when the run
    never blocked, so non-I/O output is unchanged)."""
    if not result.blocked_cycles:
        return []
    lines = [f"blocked:       {result.blocked_cycles:,}",
             f"wall cycles:   {result.wall_cycles:,}"]
    for device, clock in sorted(result.device_clocks.items()):
        lines.append(f"device {device}:   {clock:,} cycles")
    for name, cycles in sorted(result.blocked_by_native.items(),
                               key=lambda item: -item[1]):
        lines.append(f"  {cycles:>12,}  {name}")
    return lines


def _blocked_outcome(result) -> dict:
    """Manifest fields for the blocked split (empty dict when the run
    never blocked — non-I/O manifests are unchanged)."""
    if not result.blocked_cycles:
        return {}
    return {"blocked_cycles": result.blocked_cycles,
            "wall_cycles": result.wall_cycles,
            "device_clocks": dict(result.device_clocks),
            "blocked_by_native": dict(result.blocked_by_native)}


def _cmd_profile(args) -> int:
    if args.flamegraph and args.agent.label not in ("callchain",
                                                    "offcpu"):
        log.error("repro profile: --flamegraph requires --agent "
                  "callchain (CPU folded stacks) or --agent offcpu "
                  "(wall-clock folded stacks with _[offcpu] frames)")
        return 2
    if _reject_unknown_workloads([args.workload]):
        return 2
    workload = get_workload(args.workload, scale=args.scale)
    result = execute(workload,
                     RunConfig(agent=args.agent,
                               vm_config=_vm_config_from(args),
                               runs=args.runs))
    print(f"workload:      {result.workload}")
    print(f"agent:         {result.agent_label}")
    print(f"cycles:        {result.cycles:,}")
    print(f"seconds:       {result.seconds:.6f}")
    print(f"instructions:  {result.instructions:,}")
    print(f"gt native %:   "
          f"{result.ground_truth_native_fraction * 100:.2f}")
    for line in _blocked_lines(result):
        print(line)
    if result.core_clocks is not None:
        clocks = ", ".join(f"{c:,}" for c in result.core_clocks)
        print(f"core cycles:   [{clocks}]")
    if result.thread_deaths:
        for line in result.thread_deaths:
            log.error("workload thread died", detail=line)
    if result.races:
        print(f"races:         {len(result.races)} confirmed")
        _report_races({result.workload: result.races})
    if result.operations is not None:
        print(f"operations:    {result.operations:,}")
        print(f"ops/second:    {result.operations_per_second:,.0f}")
    if result.agent_report:
        print("agent report:")
        for key, value in result.agent_report.items():
            if isinstance(value, float):
                print(f"  {key}: {value:.3f}")
            else:
                print(f"  {key}: {value}")
    if args.flamegraph:
        if args.agent.label == "offcpu":
            from repro.observability.flamegraph import \
                write_wall_folded

            lines = write_wall_folded(args.flamegraph,
                                      result.agent_object.roots)
            print(f"flamegraph:    {lines} wall-clock folded stacks "
                  f"-> {args.flamegraph}")
        else:
            lines = write_folded(args.flamegraph,
                                 result.agent_object.roots)
            print(f"flamegraph:    {lines} folded stacks -> "
                  f"{args.flamegraph}")
    workload_cells = {"cycles": result.cycles,
                      "instructions": result.instructions}
    if result.blocked_cycles:
        workload_cells["blocked_cycles"] = result.blocked_cycles
        workload_cells["wall_cycles"] = result.wall_cycles
    if result.agent_report and "percent_native" in result.agent_report:
        workload_cells["percent_native"] = \
            result.agent_report["percent_native"]
    args.ledger_outcome = {
        "instructions": result.instructions,
        "cycles": result.cycles,
        "seconds": result.seconds,
        "agent_report": result.agent_report,
        "workloads": {result.workload: workload_cells},
        "races": ({result.workload: result.races}
                  if result.races else None),
        "artifacts": _artifacts_from(args,
                                     flamegraph=args.flamegraph),
    }
    args.ledger_outcome.update(_blocked_outcome(result))
    return 0


def _cmd_trace(args) -> int:
    """Run one workload with the tracer on; export a Chrome trace."""
    if _reject_unknown_workloads([args.workload]):
        return 2
    workload = get_workload(args.workload, scale=args.scale)
    observability = ObservabilityConfig(
        trace=True, metrics=bool(args.metrics_out))
    result = execute(workload,
                     RunConfig(agent=args.agent,
                               vm_config=_vm_config_from(args),
                               runs=args.runs,
                               observability=observability))
    capture = result.observability
    doc = write_chrome_trace(args.trace_out, [capture])
    print(f"workload:      {result.workload}")
    print(f"agent:         {result.agent_label}")
    print(f"cycles:        {result.cycles:,}")
    for line in _blocked_lines(result):
        print(line)
    print(f"trace events:  {len(doc['traceEvents']):,}")
    print(f"threads:       {len(capture['thread_names'])}")
    print(f"trace:         {args.trace_out} "
          f"(open in Perfetto / chrome://tracing)")
    if result.races:
        print(f"races:         {len(result.races)} confirmed")
        _report_races({result.workload: result.races})
    if args.metrics_out:
        count = write_metrics_jsonl(args.metrics_out,
                                    capture["metrics"])
        print(f"metrics:       {count} records -> {args.metrics_out}")
    args.ledger_outcome = {
        "instructions": result.instructions,
        "cycles": result.cycles,
        "trace_events": len(doc["traceEvents"]),
        "metrics": _capture_metrics_summary([capture]),
        "workloads": {result.workload: {
            "cycles": result.cycles,
            "instructions": result.instructions}},
        "artifacts": _artifacts_from(
            args, trace=args.trace_out, metrics=args.metrics_out),
    }
    args.ledger_outcome.update(_blocked_outcome(result))
    return 0


def _cmd_causal(args) -> int:
    """COZ-style causal profiling: virtually speed one method up and
    predict the wall-clock effect; optionally validate the prediction
    by actually rescaling the cost model (DESIGN.md §13)."""
    from repro.errors import HarnessError
    from repro.harness.causal import (
        DEFAULT_SWEEP_FACTORS,
        CausalSpec,
        parse_speedup,
    )

    try:
        method, factor = parse_speedup(args.speedup)
    except HarnessError as exc:
        log.error("bad --speedup", error=str(exc))
        return 2
    if _reject_unknown_workloads([args.workload]):
        return 2
    workload = get_workload(args.workload, scale=args.scale)
    sweep = DEFAULT_SWEEP_FACTORS if args.sweep else ()
    spec = CausalSpec(method=method, factor=factor, virtual=True,
                      sweep=sweep)
    result = execute(workload,
                     RunConfig(vm_config=_vm_config_from(args),
                               runs=args.runs, causal=spec))
    summary = result.causal
    print(f"workload:        {result.workload}")
    print(f"method:          {method}")
    print(f"factor:          {factor:g}x")
    print(f"wall cycles:     {result.wall_cycles:,}")
    print(f"method on-CPU:   {summary['cpu_cycles']:,} cycles")
    print(f"method blocked:  {summary['device_cycles']:,} cycles")
    predicted = summary["predicted_wall_cycles"]
    print(f"predicted wall:  {predicted:,}")
    gain = (100.0 * (result.wall_cycles - predicted)
            / result.wall_cycles) if result.wall_cycles else 0.0
    print(f"predicted gain:  {gain:.2f}%")
    if summary["cpu_cycles"] == 0 and summary["device_cycles"] == 0:
        log.warning("method never ran; the prediction is vacuous",
                    method=method)
    for row in summary.get("sweep", []):
        row_gain = (100.0 * (result.wall_cycles
                             - row["predicted_wall_cycles"])
                    / result.wall_cycles) if result.wall_cycles else 0.0
        print(f"  sweep {row['factor']:>5g}x: predicted wall "
              f"{row['predicted_wall_cycles']:>14,}  "
              f"gain {row_gain:6.2f}%")
    validation = None
    status = 0
    if args.validate:
        actual_spec = CausalSpec(method=method, factor=factor,
                                 virtual=False)
        actual = execute(workload,
                         RunConfig(vm_config=_vm_config_from(args),
                                   runs=args.runs,
                                   causal=actual_spec))
        error = (100.0 * abs(actual.wall_cycles - predicted)
                 / actual.wall_cycles) if actual.wall_cycles else 0.0
        print(f"actual wall:     {actual.wall_cycles:,} "
              f"(cost model rescaled {factor:g}x)")
        print(f"prediction error: {error:.4f}% "
              f"(max {args.max_error:g}%)")
        validation = {"actual_wall_cycles": actual.wall_cycles,
                      "error_percent": error,
                      "max_error_percent": args.max_error,
                      "ok": error <= args.max_error}
        if not validation["ok"]:
            log.error("causal validation FAILED: prediction error "
                      "exceeds the bound",
                      error_percent=round(error, 4),
                      max_error_percent=args.max_error)
            status = 1
    args.ledger_outcome = {
        "cycles": result.cycles,
        "instructions": result.instructions,
        "causal": summary,
        "causal_validation": validation,
        "workloads": {result.workload: {
            "cycles": result.cycles,
            "wall_cycles": result.wall_cycles,
            "predicted_wall_cycles": predicted}},
        "artifacts": _artifacts_from(args),
    }
    args.ledger_outcome.update(_blocked_outcome(result))
    return status


def _cmd_analyze(args) -> int:
    """Static analysis over class archives: typed verifier, CHA call
    graph, native-boundary report, and (optionally) the Figure-2
    instrumentation linter.  Exits non-zero on error findings."""
    import json

    from repro.analysis import analyze_archives, record_analysis_metrics
    from repro.classfile.archive import ClassArchive
    from repro.instrument.wrapper_gen import InstrumentationConfig
    from repro.launcher import runtime_archive

    if _reject_unknown_workloads(args.workload):
        return 2
    archives = []
    if not args.no_runtime:
        archives.append(runtime_archive())
    for path in args.archive:
        try:
            archive = ClassArchive.load(path)
            # parse every class here, so a corrupt entry is reported
            # like an unreadable file instead of failing mid-analysis
            for _cf in archive.classes():
                pass
            archives.append(archive)
        except (OSError, ClassFileError) as exc:
            log.error("cannot read archive", path=path,
                      error=str(exc))
            return 2
    names = list(workload_names()) if args.suite else list(args.workload)
    for name in names:
        archives.append(get_workload(name).archive)
    if not archives:
        log.error("nothing to analyze (--no-runtime with no "
                  "--archive/--workload/--suite)")
        return 2

    instrumentation = InstrumentationConfig()
    if args.check_instrumentation:
        from repro.agents.ipa import IPA
        from repro.instrument.static_instr import (
            instrument_archives_cached,
        )
        already = any(
            method.name.startswith(instrumentation.prefix)
            for archive in archives for cf in archive.classes()
            for method in cf.methods)
        if not already:
            archives, _stats = instrument_archives_cached(
                archives, instrumentation)
        # the agent-runtime class the wrappers call into
        archives = list(archives) + [IPA().runtime_classes()]

    result = analyze_archives(
        archives,
        check_instrumentation=args.check_instrumentation,
        instrumentation=instrumentation,
        races=args.races)

    if args.call_graph:
        with open(args.call_graph, "w", encoding="utf-8") as fh:
            json.dump(result.graph.to_json(), fh, indent=1)
        log.info("call graph written",
                 methods=len(result.graph.methods),
                 sites=len(result.graph.call_sites),
                 path=args.call_graph)

    if args.metrics_out:
        from repro.observability.metrics import MetricsRegistry
        registry = MetricsRegistry()
        record_analysis_metrics(registry, result)
        count = write_metrics_jsonl(
            args.metrics_out,
            registry.as_records(labels={"source": "analyze"}))
        log.info("metrics written", records=count,
                 path=args.metrics_out)

    if args.format == "json":
        print(json.dumps(result.to_json(), indent=1))
    else:
        print(result.report.format_text())
        boundary = result.boundary
        print(f"native boundary: {len(boundary.declared_natives)} "
              f"declared natives ({len(boundary.reachable_natives)} "
              f"CHA-reachable), {len(boundary.j2n_sites)} static J2N "
              f"call sites, {len(boundary.n2j_candidates)} N2J "
              f"callback candidates")
        if result.races is not None:
            races = result.races
            if races.multithreaded:
                print(f"race analysis: "
                      f"{len(races.shared_classes)} thread-shared "
                      f"classes, {races.race_warnings} race warnings "
                      f"({races.lockset_violations} unguarded "
                      f"accesses), {races.deadlock_potentials} "
                      f"lock-order cycles")
            else:
                print("race analysis: single-threaded (no Thread "
                      "subclass instantiated) — trivially race-free")
    args.ledger_outcome = {
        "analysis_ok": result.report.ok,
        "findings": result.report.counts(),
        "classes_analyzed": result.report.classes_analyzed,
        "declared_natives": len(result.boundary.declared_natives),
        "races": (result.races.to_json()
                  if result.races is not None else None),
        "artifacts": _artifacts_from(args,
                                     call_graph=args.call_graph),
    }
    if not result.report.ok:
        return 1
    if args.strict and result.report.counts()["warning"]:
        log.error("analyze --strict: warning findings present")
        return 1
    return 0


def _cmd_metrics(args) -> int:
    """Summarize one or more exported metrics JSONL files."""
    from repro.observability.metrics import (
        format_metrics_summary,
        read_metrics_jsonl,
        summarize_metrics,
    )

    records = []
    for path in args.files:
        try:
            records.extend(read_metrics_jsonl(path))
        except (OSError, UnicodeDecodeError) as exc:
            log.error("cannot read metrics file", path=path,
                      error=str(exc))
            return 2
    if not records:
        log.error("no metrics records found")
        return 1
    print(format_metrics_summary(summarize_metrics(records)))
    return 0


# -- service mode: `repro serve` and `repro loadgen` --------------------------


def _cmd_loadgen(args) -> int:
    """Drive the warm-VM pool with open- or closed-loop load."""
    from repro.observability.metrics import MetricsRegistry
    from repro.service.loadgen import (
        MANIFEST_REQUEST_CAP,
        LoadgenConfig,
        format_loadgen,
        run_loadgen,
    )

    if _reject_unknown_workloads(args.workloads):
        return 2
    config = LoadgenConfig(
        workloads=list(args.workloads),
        duration=args.duration,
        rps=args.rps,
        concurrency=args.concurrency,
        scale=args.scale,
        seed=args.seed,
        tier=args.tier,
        verify=args.verify,
        cores=args.cores,
        workers=args.workers,
        # unbounded by default: admission is then wall-clock-free, so
        # the set of simulated outcomes is reproducible (DESIGN.md §10)
        queue_limit=(args.queue_limit
                     if args.queue_limit is not None else 0),
        timeout_seconds=args.timeout,
        cold_baseline=args.cold_start_baseline,
    )
    registry = MetricsRegistry()
    doc = run_loadgen(config, metrics=registry)
    print(format_loadgen(doc))
    manifest_doc = dict(doc)
    manifest_doc["per_request"] = \
        doc.get("per_request", [])[:MANIFEST_REQUEST_CAP]
    args.ledger_outcome = {
        "loadgen": manifest_doc,
        "metrics": summarize_metrics(
            registry.as_records(labels={"source": "loadgen"})),
        "requests_completed": doc["requests"]["completed"],
        "artifacts": _artifacts_from(args),
    }
    if doc.get("interrupted"):
        args.ledger_interrupted = True
        return 130
    return 1 if doc["requests"]["failed"] else 0


def _cmd_serve(args) -> int:
    """Run the warm-VM pool behind a local socket until interrupted."""
    from repro.observability.metrics import MetricsRegistry
    from repro.service.pool import ServiceConfig
    from repro.service.server import ServeConfig, run_server

    if _reject_unknown_workloads(args.preheat):
        return 2
    if not args.socket and args.port is None:
        log.error("serve needs --socket PATH or --port N")
        return 2
    config = ServeConfig(
        socket_path=args.socket,
        host=args.host,
        port=args.port,
        preheat=list(args.preheat or []),
        scale=args.scale,
        service=ServiceConfig(
            workers=args.workers,
            queue_limit=(args.queue_limit
                         if args.queue_limit is not None else 64),
            timeout_seconds=args.timeout,
            tier=args.tier,
            verify=args.verify,
            cores=args.cores,
        ),
    )
    registry = MetricsRegistry()
    try:
        state = run_server(config, metrics=registry)
    except ServiceError as exc:
        log.error("cannot serve", error=str(exc))
        return 2
    args.ledger_outcome = {
        "serve": {"endpoint": config.endpoint(),
                  "stats": state.get("stats")},
        "metrics": summarize_metrics(
            registry.as_records(labels={"source": "serve"})),
        "artifacts": _artifacts_from(args),
    }
    if state.get("interrupted"):
        args.ledger_interrupted = True
    return 0


# -- run ledger: `repro runs` and `repro report` ------------------------------


def _ledger_from(args) -> ledger_module.Ledger:
    return ledger_module.Ledger(ledger_module.resolve_ledger_dir(
        getattr(args, "ledger_dir", None)))


def _config_for_manifest(args) -> dict:
    """The resolved configuration a manifest records."""
    config = {}
    for key in ("workload", "workloads", "scale", "runs", "jobs",
                "tier", "verify", "cores", "boundary_check", "suite",
                "sanitize", "race_check", "races", "strict",
                "check_instrumentation", "max_regression", "compare",
                "rps", "duration", "concurrency", "seed", "workers",
                "queue_limit", "timeout", "cold_start_baseline",
                "socket", "host", "port", "preheat",
                "speedup", "sweep", "validate", "max_error"):
        if hasattr(args, key):
            config[key] = getattr(args, key)
    agent = getattr(args, "agent", None)
    if isinstance(agent, AgentSpec):
        config["agent"] = agent.label
    elif args.command == "table2":
        config["agent"] = "ipa"
    return config


def _record_run(args, argv, status: int, wall_seconds: float) -> None:
    """Append this invocation's manifest to the run ledger.

    Best-effort host-side bookkeeping: an unwritable ledger degrades
    to a warning and the command's own exit status stands.
    """
    manifest = ledger_module.new_manifest(
        args.command, _config_for_manifest(args), argv)
    if getattr(args, "ledger_interrupted", False):
        # partial-but-valid: the run was cut short by SIGINT/SIGTERM,
        # but whatever outcome the command assembled is still recorded
        manifest["interrupted"] = True
    outcome = dict(getattr(args, "ledger_outcome", None) or {})
    outcome["exit_status"] = status
    outcome["wall_seconds"] = round(wall_seconds, 4)
    instructions = outcome.get("instructions")
    if instructions and "instructions_per_second" not in outcome \
            and wall_seconds > 0:
        outcome["instructions_per_second"] = round(
            instructions / wall_seconds)
    outcome = {key: value for key, value in outcome.items()
               if value is not None}
    manifest["outcome"] = outcome
    ledger = _ledger_from(args)
    path = ledger.write(manifest)
    if path is None:
        log.warning("run ledger unwritable; manifest dropped",
                    dir=ledger.directory, run=manifest["run_id"])
    else:
        log.info("run recorded", run=manifest["run_id"], path=path)


def _cmd_runs_list(args) -> int:
    manifests = ledger_module.filter_manifests(
        _ledger_from(args).load_all(), command=args.command_filter,
        workload=args.workload, agent=args.agent, tier=args.tier)
    if args.limit:
        manifests = manifests[-args.limit:]
    print(ledger_module.format_runs_table(manifests))
    return 0


def _cmd_runs_show(args) -> int:
    print(ledger_module.format_manifest(
        _ledger_from(args).load(args.run_id)))
    return 0


def _cmd_runs_diff(args) -> int:
    ledger = _ledger_from(args)
    lines = ledger_module.diff_manifests(ledger.load(args.run_a),
                                         ledger.load(args.run_b))
    print("\n".join(lines))
    return 0


def _cmd_runs_trend(args) -> int:
    manifests = ledger_module.filter_manifests(
        _ledger_from(args).load_all(), workload=args.workload)
    ok, lines = ledger_module.trend_report(
        manifests, max_regression_percent=args.max_regression)
    print("\n".join(lines))
    return 0 if ok else 1


def _cmd_runs(args) -> int:
    try:
        return args.runs_func(args)
    except LedgerError as exc:
        log.error("ledger lookup failed", error=str(exc))
        return 2


def _cmd_report(args) -> int:
    from repro.observability.report import render_report, write_report

    ledger = _ledger_from(args)
    try:
        manifest = ledger.load(args.run_id) if args.run_id \
            else ledger.latest()
        history = ledger.load_all()
    except LedgerError as exc:
        log.error("cannot build report", error=str(exc))
        return 2
    flamegraph_text = None
    folded = (manifest.get("outcome", {}).get("artifacts") or
              {}).get("flamegraph")
    if folded:
        try:
            with open(folded, "r", encoding="utf-8") as fh:
                flamegraph_text = fh.read()
        except OSError:
            log.warning("flamegraph artifact unreadable",
                        path=folded)
    out = args.output or f"repro-report-{manifest['run_id']}.html"
    write_report(out, render_report(manifest, history=history,
                                    flamegraph_text=flamegraph_text))
    print(f"report: {manifest['run_id']} -> {out}")
    return 0


def _add_global_arguments(parser, root: bool = False) -> None:
    """Logging + ledger switches, accepted before *or* after the
    subcommand.

    The root parser carries the real defaults; subparser copies
    default to ``SUPPRESS`` so a value parsed before the subcommand
    (``repro --log-level debug table1``) is not clobbered by the
    subparser's defaults.
    """
    suppressed = argparse.SUPPRESS

    parser.add_argument(
        "--log-level", choices=obs_logging.LEVEL_NAMES,
        default="info" if root else suppressed,
        help="stderr log verbosity (default: info)")
    parser.add_argument(
        "--log-json", action="store_true",
        default=False if root else suppressed,
        help="emit log lines as JSON objects instead of key=value")
    parser.add_argument(
        "--ledger-dir", metavar="DIR",
        default=None if root else suppressed,
        help=("run-ledger directory (default: $REPRO_LEDGER_DIR or "
              f"{ledger_module.DEFAULT_LEDGER_DIR})"))
    parser.add_argument(
        "--no-ledger", action="store_true",
        default=False if root else suppressed,
        help="do not record this invocation in the run ledger")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=("Reproduction of 'A Quantitative Evaluation of "
                     "the Contribution of Native Code to Java "
                     "Workloads' (IISWC 2006)"))
    _add_global_arguments(parser, root=True)
    sub = parser.add_subparsers(dest="command", required=True)

    pl = sub.add_parser("list", help="list workloads")
    _add_global_arguments(pl)
    pl.set_defaults(func=_cmd_list)

    for name, help_text, func in (
            ("table1", "regenerate Table I", _cmd_table1),
            ("table2", "regenerate Table II", _cmd_table2)):
        pt = sub.add_parser(name, help=help_text)
        pt.add_argument("--scale", type=_positive_int, default=1)
        pt.add_argument("--runs", type=_positive_int, default=1)
        pt.add_argument("--jobs", type=_positive_int, default=1,
                        help="worker processes for independent cells")
        pt.add_argument("--workloads", nargs="+", default=None,
                        metavar="NAME",
                        help=("restrict the table to these workloads "
                              "(default: the full suite)"))
        pt.add_argument("--trace", metavar="OUT.json", default=None,
                        help=("record per-cell traces; write merged "
                              "Chrome trace-event JSON (table output "
                              "is unchanged)"))
        pt.add_argument("--metrics-out", metavar="OUT.jsonl",
                        default=None,
                        help="write per-cell metrics records as JSONL")
        _add_tier_argument(pt)
        _add_cores_argument(pt)
        _add_verify_argument(pt)
        _add_sanitize_argument(pt)
        _add_global_arguments(pt)
        if name == "table2":
            pt.add_argument(
                "--boundary-check", action="store_true",
                help=("cross-check dynamically invoked natives "
                      "against the static native-boundary analysis "
                      "(report on stderr; exit 1 on violation)"))
            pt.add_argument(
                "--race-check", action="store_true",
                help=("cross-check sanitizer-confirmed races against "
                      "the static lockset analysis — every dynamic "
                      "race must be statically predicted (implies "
                      "--sanitize race; report on stderr; exit 1 on "
                      "violation)"))
        pt.set_defaults(func=func)

    pp = sub.add_parser("profile", help="profile one workload")
    pp.add_argument("workload")
    pp.add_argument("--agent", type=_agent_spec,
                    default=AgentSpec.ipa(),
                    help=" | ".join(AGENT_NAMES))
    pp.add_argument("--scale", type=_positive_int, default=1)
    pp.add_argument("--runs", type=_positive_int, default=1)
    pp.add_argument("--flamegraph", metavar="OUT.folded", default=None,
                    help=("write folded stacks from the CCT: CPU "
                          "cycles with --agent callchain, wall-clock "
                          "(blocked frames suffixed _[offcpu]) with "
                          "--agent offcpu"))
    _add_tier_argument(pp)
    _add_cores_argument(pp)
    _add_verify_argument(pp)
    _add_sanitize_argument(pp)
    _add_global_arguments(pp)
    pp.set_defaults(func=_cmd_profile)

    ptr = sub.add_parser(
        "trace", help="trace one workload (Chrome/Perfetto JSON)")
    ptr.add_argument("workload")
    ptr.add_argument("--agent", type=_agent_spec,
                     default=AgentSpec.none(),
                     help=" | ".join(AGENT_NAMES))
    ptr.add_argument("--scale", type=_positive_int, default=1)
    ptr.add_argument("--runs", type=_positive_int, default=1)
    ptr.add_argument("--trace-out", metavar="OUT.json",
                     default="trace.json",
                     help="Chrome trace-event JSON output path")
    ptr.add_argument("--metrics-out", metavar="OUT.jsonl",
                     default=None,
                     help="also export metrics records as JSONL")
    _add_tier_argument(ptr)
    _add_cores_argument(ptr)
    _add_verify_argument(ptr)
    _add_sanitize_argument(ptr)
    _add_global_arguments(ptr)
    ptr.set_defaults(func=_cmd_trace)

    pc = sub.add_parser(
        "causal",
        help=("COZ-style causal profiling: --speedup M=F virtually "
              "speeds method M up by factor F and predicts the "
              "wall-clock effect; --validate replays with the cost "
              "model actually rescaled"))
    pc.add_argument("workload")
    pc.add_argument("--speedup", required=True,
                    metavar="CLASS.METHOD=FACTOR",
                    help=("the what-if: qualified method name (as "
                          "printed by profile/offcpu reports) and the "
                          "hypothetical speedup factor, e.g. "
                          "java.io.RandomAccessFile.readBytes([BII)I"
                          "=2.0"))
    pc.add_argument("--sweep", action="store_true",
                    help="also predict a standard factor sweep "
                         "(1.1x .. 8x)")
    pc.add_argument("--validate", action="store_true",
                    help=("re-run with the method's costs actually "
                          "divided by the factor and compare against "
                          "the prediction (exit 1 beyond --max-error)"))
    pc.add_argument("--max-error", type=_positive_float, default=1.0,
                    metavar="PCT",
                    help="allowed |predicted-actual| wall error in "
                         "percent for --validate (default: 1.0)")
    pc.add_argument("--scale", type=_positive_int, default=1)
    pc.add_argument("--runs", type=_positive_int, default=1)
    _add_tier_argument(pc)
    _add_cores_argument(pc)
    _add_verify_argument(pc)
    _add_global_arguments(pc)
    pc.set_defaults(func=_cmd_causal)

    pm = sub.add_parser(
        "metrics", help="summarize exported metrics JSONL files")
    pm.add_argument("files", nargs="+", metavar="FILE.jsonl")
    _add_global_arguments(pm)
    pm.set_defaults(func=_cmd_metrics)

    pa = sub.add_parser(
        "analyze",
        help=("static analysis: typed verifier, CHA call graph, "
              "native boundary, instrumentation linter"))
    pa.add_argument("--workload", action="append", default=[],
                    metavar="NAME",
                    help="include a workload's archive (repeatable)")
    pa.add_argument("--archive", action="append", default=[],
                    metavar="PATH",
                    help="include a serialized archive (repeatable)")
    pa.add_argument("--suite", action="store_true",
                    help="include every workload archive")
    pa.add_argument("--no-runtime", action="store_true",
                    help="exclude the runtime library archive")
    pa.add_argument("--check-instrumentation", action="store_true",
                    help=("instrument the archives, then lint the "
                          "Figure-2 wrapper invariants"))
    pa.add_argument("--races", action="store_true",
                    help=("run the thread-escape + Eraser-lockset "
                          "race prediction and the lock-order "
                          "deadlock analysis"))
    pa.add_argument("--strict", action="store_true",
                    help="exit non-zero on warning findings, not "
                         "just errors")
    pa.add_argument("--call-graph", metavar="OUT.json", default=None,
                    help="write the CHA call graph as JSON")
    pa.add_argument("--metrics-out", metavar="OUT.jsonl", default=None,
                    help="write analysis counters as metrics JSONL")
    pa.add_argument("--format", choices=("text", "json"),
                    default="text", help="report format")
    _add_global_arguments(pa)
    pa.set_defaults(func=_cmd_analyze)

    pb = sub.add_parser(
        "bench", help="time the JVM98 suite; record host performance")
    pb.add_argument("--scale", type=_positive_int, default=1)
    pb.add_argument("--suite", choices=("jvm98", "full", "all"),
                    default="jvm98",
                    help=("workload set: 'jvm98' (the paper's seven, "
                          "default), 'full' (plus jbb2005), or 'all' "
                          "(plus the concurrency family)"))
    pb.add_argument("--output", default="BENCH_interpreter.json",
                    help="JSON file to write ('' to skip writing)")
    pb.add_argument("--compare", metavar="BASELINE.json", default=None,
                    help=("compare against a stored measurement; exit "
                          "non-zero on host-throughput regression"))
    pb.add_argument("--max-regression", type=float, default=5.0,
                    metavar="PCT",
                    help=("allowed suite-rate regression in percent "
                          "for --compare (default: 5.0)"))
    _add_tier_argument(pb)
    _add_cores_argument(pb)
    _add_global_arguments(pb)
    pb.set_defaults(func=_cmd_bench)

    pr = sub.add_parser(
        "runs", help="query the run ledger (list, show, diff, trend)")
    runs_sub = pr.add_subparsers(dest="runs_command", required=True)
    prl = runs_sub.add_parser("list", help="list recorded runs")
    prl.add_argument("--command", dest="command_filter", default=None,
                     metavar="NAME",
                     help="only runs of one subcommand")
    prl.add_argument("--workload", default=None, metavar="NAME",
                     help="only runs that measured this workload")
    prl.add_argument("--agent", default=None, metavar="NAME",
                     help="only runs under this agent")
    prl.add_argument("--tier", default=None,
                     choices=("template", "interp"),
                     help="only runs on this execution tier")
    prl.add_argument("--limit", type=_positive_int, default=None,
                     help="show only the most recent N runs")
    _add_global_arguments(prl)
    prl.set_defaults(runs_func=_cmd_runs_list)
    prs = runs_sub.add_parser("show", help="show one run manifest")
    prs.add_argument("run_id", metavar="RUN_ID",
                     help="run id (a unique prefix is enough)")
    _add_global_arguments(prs)
    prs.set_defaults(runs_func=_cmd_runs_show)
    prd = runs_sub.add_parser(
        "diff", help="config + per-cell deltas between two runs")
    prd.add_argument("run_a", metavar="RUN_A")
    prd.add_argument("run_b", metavar="RUN_B")
    _add_global_arguments(prd)
    prd.set_defaults(runs_func=_cmd_runs_diff)
    prt = runs_sub.add_parser(
        "trend",
        help=("per-workload series across the ledger with a "
              "regression verdict (non-zero exit on regression)"))
    prt.add_argument("--workload", default=None, metavar="NAME",
                     help="restrict to one workload")
    prt.add_argument("--max-regression", type=float, default=5.0,
                     metavar="PCT",
                     help=("allowed latest-vs-previous regression in "
                           "percent (default: 5.0)"))
    _add_global_arguments(prt)
    prt.set_defaults(runs_func=_cmd_runs_trend)
    _add_global_arguments(pr)
    pr.set_defaults(func=_cmd_runs)

    def add_service_arguments(subparser) -> None:
        subparser.add_argument(
            "--workers", type=_positive_int, default=2, metavar="N",
            help="pool workers, each with its own warm VMs "
                 "(default: 2)")
        subparser.add_argument(
            "--queue-limit", type=_non_negative_int, default=None,
            metavar="N",
            help="bounded-queue admission limit; requests beyond it "
                 "are rejected 429-style (0 = unbounded)")
        subparser.add_argument(
            "--timeout", type=_positive_float, default=None,
            metavar="SECONDS",
            help="per-request timeout; an expired request returns a "
                 "504-style outcome and its worker is replaced if "
                 "stuck (default: none)")
        subparser.add_argument("--scale", type=_positive_int,
                               default=1)
        _add_tier_argument(subparser)
        _add_cores_argument(subparser)
        _add_verify_argument(subparser)

    pserve = sub.add_parser(
        "serve",
        help=("run the warm-VM pool behind a local unix socket or "
              "TCP port (JSON-lines protocol)"))
    pserve.add_argument("--socket", metavar="PATH", default=None,
                        help="unix socket path to listen on")
    pserve.add_argument("--port", type=_positive_int, default=None,
                        metavar="N", help="TCP port to listen on")
    pserve.add_argument("--host", default="127.0.0.1",
                        help="TCP bind address (default: 127.0.0.1)")
    pserve.add_argument("--preheat", nargs="+", default=[],
                        metavar="NAME",
                        help="pre-warm these workloads in every "
                             "worker before accepting traffic")
    add_service_arguments(pserve)
    _add_global_arguments(pserve)
    pserve.set_defaults(func=_cmd_serve)

    plg = sub.add_parser(
        "loadgen",
        help=("drive the warm-VM pool with open-loop (--rps) or "
              "closed-loop load; report latency percentiles, "
              "achieved vs offered RPS, and rejection counters"))
    plg.add_argument("--rps", type=_positive_float, default=None,
                     metavar="N",
                     help="open-loop offered rate (omit for a "
                          "closed loop at --concurrency)")
    plg.add_argument("--concurrency", type=_positive_int, default=4,
                     metavar="C",
                     help="closed-loop loopers (default: 4; ignored "
                          "with --rps)")
    plg.add_argument("--duration", type=_positive_float, default=5.0,
                     metavar="SECONDS",
                     help="experiment length (default: 5)")
    plg.add_argument("--workloads", nargs="+", default=["db"],
                     metavar="NAME",
                     help="request mix, chosen per request by the "
                          "seeded RNG (default: db)")
    plg.add_argument("--seed", type=int, default=0,
                     help="schedule/mix RNG seed (default: 0)")
    plg.add_argument("--cold-start-baseline", action="store_true",
                     help="replay the same schedule against a cold "
                          "pool and report the comparison")
    add_service_arguments(plg)
    _add_global_arguments(plg)
    plg.set_defaults(func=_cmd_loadgen)

    pre = sub.add_parser(
        "report",
        help="render a self-contained HTML report for a ledger run")
    pre.add_argument("run_id", nargs="?", default=None,
                     metavar="RUN_ID",
                     help=("run id or unique prefix (default: the "
                           "latest run)"))
    pre.add_argument("--latest", action="store_true",
                     help="report on the latest run (the default)")
    pre.add_argument("--output", "-o", metavar="OUT.html",
                     default=None,
                     help="output path (default: "
                          "repro-report-<run_id>.html)")
    _add_global_arguments(pre)
    pre.set_defaults(func=_cmd_report)
    return parser


def _sigterm_to_interrupt(_signum, _frame) -> None:
    """SIGTERM handler for long-running commands: route through the
    KeyboardInterrupt path so a partial-but-valid ledger manifest is
    flushed instead of dying with a truncated entry."""
    raise KeyboardInterrupt


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    obs_logging.configure(
        level=getattr(args, "log_level", "info"),
        json_mode=getattr(args, "log_json", False))
    previous_sigterm = None
    try:
        previous_sigterm = signal.signal(signal.SIGTERM,
                                         _sigterm_to_interrupt)
    except ValueError:
        pass  # not the main thread (embedding); SIGTERM stays default
    started = time.perf_counter()
    try:
        status = args.func(args)
    except BrokenPipeError:
        # stdout consumer (e.g. `| head`) went away; exit quietly
        return 0
    except KeyboardInterrupt:
        # serve/loadgen handle interrupts themselves; this catches the
        # rest (multi-rep tables, bench) so the ledger still gets a
        # manifest marked interrupted instead of a truncated entry
        status = 130
        args.ledger_interrupted = True
        log.warning("interrupted; flushing partial run manifest")
    finally:
        if previous_sigterm is not None:
            signal.signal(signal.SIGTERM, previous_sigterm)
    if args.command in LEDGER_COMMANDS and \
            not getattr(args, "no_ledger", False):
        _record_run(args, argv if argv is not None else sys.argv[1:],
                    status, time.perf_counter() - started)
    return status


if __name__ == "__main__":
    sys.exit(main())
