"""Execute one workload under one configuration and collect metrics."""

from __future__ import annotations

import dataclasses
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro import units
from repro.errors import HarnessError
from repro.harness.config import RunConfig
from repro.jni.stdlib import build_java_library
from repro.jvm.machine import JavaVM, RunState
from repro.launcher import runtime_archive
from repro.observability.sink import ObservabilitySink
from repro.observability.tracer import HARNESS_TID
from repro.workloads.base import MetricKind, Workload


@dataclass
class RunResult:
    """Everything measured in one workload execution."""

    workload: str
    agent_label: str
    cycles: int
    seconds: float
    instructions: int
    ground_truth: Dict[str, int]
    ground_truth_native_fraction: float
    agent_report: Optional[Dict]
    sampler_report: Optional[Dict]
    validation_ok: bool
    validation_detail: str
    jit_compiled: int
    jit_vetoed: bool
    operations: Optional[int] = None
    console: List[str] = field(default_factory=list)
    #: Capture document (trace events + metrics records) when the run
    #: was observed; ``None`` otherwise.  JSON-safe and picklable.
    observability: Optional[Dict] = None
    #: Qualified names of native methods the VM resolved during the
    #: run — the dynamic side of the static-vs-dynamic native-boundary
    #: cross-check.  Plain strings, picklable.
    native_methods_invoked: List[str] = field(default_factory=list)
    #: Console lines of threads that died with an uncaught exception
    #: (empty on clean runs); table commands exit non-zero when set.
    thread_deaths: List[str] = field(default_factory=list)
    #: Per-core cycle clocks (``--cores N``, N > 1); ``None`` under the
    #: sequential model.
    core_clocks: Optional[List[int]] = None
    #: Confirmed data races from ``--sanitize race`` (empty when the
    #: sanitizer is off or the run is clean).  Plain dicts with both
    #: racing stacks and simulated-cycle timestamps; picklable.
    races: List[Dict] = field(default_factory=list)
    #: The live agent instance (CCT access for flamegraph export).
    #: Host-side only — stripped before crossing process boundaries.
    agent_object: Optional[object] = None
    #: Off-CPU cycles: total time threads were parked on simulated
    #: devices (DESIGN.md §13).  Zero for the paper's suite workloads,
    #: which never block.
    blocked_cycles: int = 0
    #: Final per-device timeline clocks (``{"disk": ..., "net": ...}``);
    #: empty when nothing blocked.
    device_clocks: Dict[str, int] = field(default_factory=dict)
    #: Blocked cycles attributed per blocking native method.
    blocked_by_native: Dict[str, int] = field(default_factory=dict)
    #: Wall-clock cycles: on-CPU plus off-CPU elapsed time.  Equals
    #: ``cycles`` when nothing blocked (sequential model).
    wall_cycles: int = 0
    #: COZ-style causal experiment summary (repro.harness.causal) when
    #: the run carried one; ``None`` otherwise.  JSON-safe, picklable.
    causal: Optional[Dict] = None

    @property
    def operations_per_second(self) -> Optional[float]:
        if self.operations is None or self.seconds <= 0:
            return None
        return self.operations / self.seconds


def _build_vm(workload: Workload, config: RunConfig) -> JavaVM:
    """A VM wired for ``workload``: natives, agent, archives, files."""
    vm_config = config.vm_config
    vm = JavaVM(dataclasses.replace(
        vm_config, jit_policy=vm_config.jit_policy.copy()))
    if config.causal is not None:
        # a fresh accumulator per VM: specs are shared (and picklable,
        # for --jobs workers); experiments are single-use
        from repro.harness.causal import CausalExperiment

        vm.causal = CausalExperiment(config.causal)
    if config.observability is not None and \
            config.observability.enabled:
        # install before agents attach so they pick up the live tracer
        vm.obs = ObservabilitySink(config.observability)
    vm.native_registry.register(build_java_library(), preload=True)
    for library in workload.native_libraries():
        vm.native_registry.register(library)

    agent = None
    if config.agent.factory is not None:
        agent = config.agent.factory()
        vm.attach_agent(agent)
    if config.sampler is not None:
        sampler = config.sampler()
        sampler.install(vm)
        vm.sampler = sampler

    archives = [runtime_archive(), workload.archive]
    if agent is not None:
        archives = agent.instrument_archives(archives)
    vm.loader.add_boot_archive(archives[0])
    vm.loader.add_classpath_archive(archives[1])
    workload.install_files(vm)
    return vm


def _run_once(workload: Workload, config: RunConfig) -> RunResult:
    wall_started = time.perf_counter()
    vm = _build_vm(workload, config)
    sink = vm.obs
    tracer = sink.tracer
    launch_started = vm.threads.total_cycles()
    vm.launch(workload.main_class)
    tracer.complete(f"launch:{workload.name}", "harness", HARNESS_TID,
                    launch_started, vm.threads.total_cycles())

    validate_started = vm.threads.total_cycles()
    check = workload.validate(vm)
    operations = None
    if workload.metric is MetricKind.THROUGHPUT:
        operations = workload.operations(vm)
    tracer.complete("validate", "harness", HARNESS_TID,
                    validate_started, vm.threads.total_cycles())

    agent_report = None
    if vm.agents:
        agent_report = vm.agents[0].report()
    sampler_report = None
    sampler = getattr(vm, "sampler", None)
    if sampler is not None:
        sampler_report = sampler.report()

    observability = None
    if sink.enabled:
        _record_run_metrics(sink, vm,
                            time.perf_counter() - wall_started)
        observability = sink.capture(
            labels={"workload": workload.name,
                    "agent": config.agent.label},
            clock_hz=vm.config.clock_hz)

    return RunResult(
        workload=workload.name,
        agent_label=config.agent.label,
        cycles=vm.total_cycles,
        seconds=units.cycles_to_seconds(vm.total_cycles,
                                        vm.config.clock_hz),
        instructions=vm.instructions_retired,
        ground_truth=vm.ground_truth(),
        ground_truth_native_fraction=vm.ground_truth_native_fraction(),
        agent_report=agent_report,
        sampler_report=sampler_report,
        validation_ok=check.ok,
        validation_detail=check.detail,
        jit_compiled=vm.jit.compile_count,
        jit_vetoed=vm.jit.vetoed,
        operations=operations,
        console=list(vm.console),
        observability=observability,
        native_methods_invoked=sorted(vm.native_methods_invoked),
        thread_deaths=list(vm.thread_deaths),
        core_clocks=(list(vm.scheduler.core_clock)
                     if vm.scheduler is not None else None),
        races=(list(vm.sanitizer.races)
               if vm.sanitizer is not None else []),
        agent_object=vm.agents[0] if vm.agents else None,
        blocked_cycles=vm.total_blocked,
        device_clocks=dict(vm.device_clock),
        blocked_by_native=dict(vm.blocked_by_native),
        wall_cycles=vm.wall_cycles,
        causal=(vm.causal.summary(wall_cycles=vm.wall_cycles)
                if vm.causal is not None else None),
    )


def _record_run_metrics(sink: ObservabilitySink, vm: JavaVM,
                        wall_seconds: float) -> None:
    """Fold the VM's host-side statistics into the metrics registry.

    Reading them is free of simulated cost — they are bookkeeping the
    machine maintains regardless of observability.  Every
    :class:`~repro.jvm.machine.RunState` counter is exported under the
    metric name its declaration gives.
    """
    metrics = sink.metrics
    if not metrics.enabled:
        return
    for counter in dataclasses.fields(RunState):
        if "metric" in counter.metadata:
            metrics.inc(counter.metadata["metric"] or counter.name,
                        getattr(vm, counter.name))
    for reason, count in sorted(vm.template_deopts.items()):
        metrics.inc(f"jit_template_deopt_{reason.replace(':', '_')}",
                    count)
    metrics.inc("method_invocations", vm.method_invocations)
    metrics.inc("jvmti_events_dispatched",
                vm.jvmti.events_dispatched)
    for event_name, count in sorted(
            vm.jvmti.dispatch_counts.items()):
        metrics.inc(f"jvmti_events_{event_name.lower()}", count)
    metrics.inc("jit_compiled_methods", vm.jit.compile_count)
    metrics.inc("jit_templates_translated", vm.jit.templates_translated)
    metrics.inc("jit_template_invalidated",
                vm.jit.code_cache.invalidated)
    metrics.inc("jit_template_source_bytes",
                vm.jit.code_cache.source_bytes)
    metrics.set_gauge("jit_template_source_bytes_max",
                      vm.jit.code_cache.largest_source_bytes)
    # OSR entry functions of structured templates, apart from them
    metrics.inc("jit_osr_templates_translated",
                vm.jit.code_cache.osr_installed)
    metrics.inc("jit_osr_source_bytes", vm.jit.code_cache.osr_source_bytes)
    # counting forms of warm methods (in jit_templates_translated too)
    metrics.inc("jit_counting_templates_translated",
                vm.jit.code_cache.counting_installed)
    metrics.inc("jit_counting_source_bytes",
                vm.jit.code_cache.counting_source_bytes)
    # call sites that inline their hot leaf callee's body
    metrics.inc("jit_inlined_sites", vm.jit.code_cache.inlined_sites)
    for reason, count in sorted(vm.jit.template_bailouts.items()):
        metrics.inc(f"jit_template_bailout_{reason.replace(':', '_')}",
                    count)
    # per-method tier state for the hottest methods (compiled or, with
    # the JIT off, translated for the host only): enough to
    # reconstruct "which tier ran this, how it got in, and how often
    # it fell out" without a per-method metrics explosion
    hottest = sorted(vm.jit.hot_methods,
                     key=lambda m: -m.invocation_count)[:10]
    for m in hottest:
        slug = (m.qualified_name.split("(")[0]
                .replace(".", "_").replace("$", "_"))
        metrics.set_gauge(f"hot_method_{slug}_invocations",
                          m.invocation_count)
        metrics.set_gauge(f"hot_method_{slug}_osr_entries",
                          m.osr_entry_count)
        metrics.set_gauge(f"hot_method_{slug}_deopts",
                          m.template_deopt_count)
        metrics.set_gauge(f"hot_method_{slug}_tier",
                          1 if m.template is not None else 0)
        # deepest invokevirtual PIC in the method: 0 = no seeded site,
        # 1 = monomorphic, k = polymorphic, -1 = a site went megamorphic
        depth = 0
        mega = False
        for q in m.quick:
            if type(q) is list and len(q) == 8:
                if q[6] is False:
                    mega = True
                elif q[6]:
                    depth = max(depth, 1 + len(q[6]))
                elif q[4] is not None:
                    depth = max(depth, 1)
        metrics.set_gauge(f"hot_method_{slug}_pic_depth",
                          -1 if mega else depth)
    if vm.thread_deaths:
        # emitted only when nonzero so clean-run metric captures (and
        # the goldens built from them) are unchanged
        metrics.inc("uncaught_thread_exceptions", len(vm.thread_deaths))
    sanitizer = vm.sanitizer
    if sanitizer is not None:
        # emitted only when the sanitizer is on, so sanitize-off metric
        # captures (and the goldens built from them) are unchanged
        metrics.inc("races_confirmed", len(sanitizer.races))
        metrics.inc("shadow_words", sanitizer.shadow_words)
    scheduler = vm.scheduler
    if scheduler is not None:
        metrics.inc("scheduler_context_switches",
                    scheduler.context_switches)
        metrics.inc("scheduler_monitor_contentions",
                    scheduler.monitor_contentions)
        metrics.inc("scheduler_deadlocks_detected",
                    scheduler.deadlocks_detected)
        for core, clock in enumerate(scheduler.core_clock):
            metrics.set_gauge(f"core_{core}_cycles", clock)
    if vm.total_blocked:
        # emitted only when something actually blocked, so the paper's
        # non-I/O metric captures (and goldens) are unchanged
        metrics.inc("blocked_cycles", vm.total_blocked)
        metrics.set_gauge("wall_cycles", vm.wall_cycles)
        for device, clock in sorted(vm.device_clock.items()):
            metrics.set_gauge(f"device_{device}_cycles", clock)
        for device, cycles in sorted(
                vm.threads.total_blocked_by_device().items()):
            metrics.inc(f"blocked_{device}_cycles", cycles)
        if scheduler is not None:
            metrics.inc("scheduler_io_blocks", scheduler.io_blocks)
    metrics.set_gauge("cycles_total", vm.total_cycles)
    for tag, cycles in sorted(vm.ground_truth().items()):
        metrics.set_gauge(f"cycles_{tag}", cycles)
    metrics.set_gauge("host_wall_seconds", round(wall_seconds, 6))


def execute(workload: Workload,
            config: Optional[RunConfig] = None) -> RunResult:
    """Run ``workload`` under ``config``; with ``runs > 1`` the
    median-cycles run is returned (the paper's median-of-15 procedure —
    degenerate here because the simulator is deterministic)."""
    config = config or RunConfig()
    if config.runs < 1:
        raise HarnessError(f"runs must be >= 1, got {config.runs}")
    results = [_run_once(workload, config) for _ in range(config.runs)]
    if not all(r.validation_ok for r in results):
        bad = next(r for r in results if not r.validation_ok)
        raise HarnessError(
            f"workload {workload.name} failed validation under "
            f"{config.agent.label}: {bad.validation_detail}")
    median_cycles = statistics.median(r.cycles for r in results)
    return min(results, key=lambda r: abs(r.cycles - median_cycles))


def execute_many(workload: Workload,
                 configs: List[RunConfig]) -> List[RunResult]:
    """Run the same workload under several configurations."""
    return [execute(workload, config) for config in configs]
