"""The :class:`JavaVM` facade: wiring, launch protocol, and results.

Launch protocol (mirrors a real JVM run with ``-agentlib:``):

1. construct the VM with a :class:`VMConfig`;
2. attach agents (``Agent_OnLoad`` runs: capabilities, callbacks,
   events; agent native libraries and runtime classes are installed;
   static instrumentation rewrites the launch archives);
3. :meth:`JavaVM.launch` — creates the bootstrap (main) thread (which,
   per the JVMTI contract the paper leans on, gets **no** ThreadStart
   event), fires VMInit, runs ``main.main()V``, drains threads started
   but not yet joined, fires ThreadEnd for every thread, and finally
   VMDeath.

All results (cycle totals, ground-truth tags, agent reports) are read
off the VM afterwards.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro import units
from repro.errors import DeadlockError, NoSuchMethodError, VMError
from repro.jit.compiler import JitCompiler
from repro.jit.policy import JitPolicy
from repro.jni.function_table import JNIEnv, JNIFunctionTable
from repro.jni.library import NativeRegistry
from repro.jvm.classloader import ClassLoader
from repro.jvm.costmodel import ChargeTag, CostModel
from repro.jvm.heap import Heap
from repro.jvm.interpreter import Interpreter, Unwind
from repro.jvm.scheduler import CoreScheduler, SchedulerAbort
from repro.jvm.threads import SimThread, ThreadManager, ThreadState
from repro.jvmti.host import (
    JVMTI_VERSION_1_1,
    JVMTIHost,
)
from repro.observability.sink import NULL_SINK
from repro.observability.tracer import HARNESS_TID
from repro.pcl.counters import PCL
from repro.sanitizer.race import RaceSanitizer

MAIN_DESCRIPTOR = "()V"


@dataclass
class VMConfig:
    """Launch configuration."""

    clock_hz: int = units.DEFAULT_CLOCK_HZ
    cost_model: CostModel = field(default_factory=CostModel)
    jit_policy: JitPolicy = field(default_factory=JitPolicy)
    #: JVMTI version exposed to agents: (1, 0) or (1, 1).
    jvmti_version: tuple = JVMTI_VERSION_1_1
    #: Bytecode verification at class load: ``"off"``, ``"structural"``
    #: (stack-discipline dataflow), or ``"typed"`` (abstract
    #: interpretation over the type lattice).  Verification runs on the
    #: host and charges no simulated cycles, so results are identical
    #: across modes for classes that verify.
    verify: str = "structural"
    #: Simulated CPU cores.  1 (the default) is the sequential
    #: run-to-completion model matching the paper's single-CPU testbed;
    #: N > 1 enables the preemptive :class:`~repro.jvm.scheduler.
    #: CoreScheduler` with per-core cycle clocks.
    cores: int = 1
    #: Dynamic sanitizer: ``"off"`` or ``"race"`` (FastTrack-style
    #: happens-before detector).  Pure host-side shadow state — cycle
    #: accounting and tables are bit-identical across modes.
    sanitize: str = "off"


def _counter(metric: Optional[str] = None):
    """A per-run count, exported as run metric ``metric`` (by default
    under the field's own name)."""
    return field(default=0, metadata={"metric": metric})


@dataclass(eq=False, repr=False)
class RunState:
    """Everything one run starts fresh, declared once: the VM
    constructor and the warm reset run this initializer, and the run
    metrics export every counter under the name its field gives.  The
    fields are plain :class:`JavaVM` attributes, so hot paths and
    templates write ``vm.<field>`` with no extra lookup.

    Kept out: the heap and the per-class statics (template closures
    bind them, so a warm reset restores them in place); the JVMTI host
    (replaced by the warm reset; templates read it at run time);
    per-method hotness counters (on ``LoadedMethod``, zeroed by the
    reset); and warmth, which the reset keeps — loaded and verified
    classes, compiled flags and cost arrays, the code cache, quickened
    call sites, resolved natives, the heap's intern table and
    ``JitCompiler.template_bailouts``.
    """

    threads: ThreadManager = field(default_factory=ThreadManager)
    instructions_retired: int = _counter()
    #: the share of instructions_retired the dispatch loop ran
    interpreted_instructions: int = _counter("jvm_interpreted_instructions")
    native_invocations: int = _counter()
    jni_invocations: int = _counter()
    ic_hits: int = _counter("inline_cache_hits")
    ic_misses: int = _counter("inline_cache_misses")
    # polymorphic inline caches: hits served by a non-first PIC
    # entry, dispatches through megamorphic sites, and the two
    # state transitions (mono->poly on second receiver class,
    # poly->mega past JitPolicy.pic_depth)
    pic_hits: int = _counter()
    pic_megamorphic: int = _counter()
    pic_mono_to_poly: int = _counter()
    pic_poly_to_mega: int = _counter()
    methods_verified: int = _counter("verifier_methods_verified")
    classes_loaded: int = _counter()
    pcl_reads: int = _counter()
    #: activations entered through a template (framed or frameless)
    template_entries: int = _counter("jit_template_entries")
    #: on-stack replacements: live interpreter frames transferred
    #: into a template at a loop-header backedge
    osr_entries: int = _counter("jit_osr_entries")
    #: runtime deopt reason -> count
    template_deopts: Dict[str, int] = field(default_factory=dict)
    console: List[str] = field(default_factory=list)
    # simulated file system: name -> bytes (inputs) / bytearray (outputs)
    files: Dict[str, bytes] = field(default_factory=dict)
    #: Qualified names of native methods actually resolved by this
    #: VM (filled once per method at first invocation — zero cost
    #: on the hot path); the harness cross-checks this set against
    #: the static native-boundary analysis.
    native_methods_invoked: set = field(default_factory=set)
    #: One entry per thread that died with an uncaught exception:
    #: the console line that reported it.  Surfaced through harness
    #: metrics, the run ledger, and table exit codes.
    thread_deaths: List[str] = field(default_factory=list)
    #: Per-device completion clocks for blocking natives (DESIGN.md
    #: §13): ``device name -> device cycles``.  Empty unless a
    #: blocking native ran.
    device_clock: Dict[str, int] = field(default_factory=dict)
    #: Blocked cycles attributed per native method (``CLASS.METHOD
    #: -> cycles``) — the off-CPU analogue of ground-truth tags.
    blocked_by_native: Dict[str, int] = field(default_factory=dict)
    # trace lane ids for device timelines (negative, distinct from
    # the scheduler's per-core lanes)
    _device_lanes: Dict[str, int] = field(default_factory=dict)
    _launched: bool = False


class JavaVM(RunState):
    """One simulated JVM instance (single launch, then read results):
    the wiring built here plus the per-run :class:`RunState`."""

    def __init__(self, config: Optional[VMConfig] = None):
        RunState.__init__(self)
        self.config = config or VMConfig()
        self.cost_model = self.config.cost_model
        self.heap = Heap()
        self.loader = ClassLoader(self)
        self.jvmti = JVMTIHost(self, self.config.jvmti_version)
        self.jit = JitCompiler(self, self.config.jit_policy)
        if self.jit.policy.template_tier:
            # templates re-enter the interpreter recursively for Java
            # calls (a few host frames per simulated frame); the host
            # default limit sits far below max_frames.  Never lowered.
            needed = 4 * self.cost_model.max_frames + 1000
            if sys.getrecursionlimit() < needed:
                sys.setrecursionlimit(needed)
        self.native_registry = NativeRegistry(self)
        self.jni_table = JNIFunctionTable(self)
        self.interpreter = Interpreter(self)
        #: Happens-before race sanitizer; None unless ``--sanitize
        #: race``.  Constructed before the scheduler, which caches a
        #: reference for its slice-boundary handoff edges.
        self.sanitizer: Optional[RaceSanitizer] = (
            RaceSanitizer(self) if self.config.sanitize == "race"
            else None)
        #: Preemptive N-core scheduler; None under the sequential model
        #: (cores=1), which every hot path checks cheaply.
        self.scheduler: Optional[CoreScheduler] = (
            CoreScheduler(self, self.config.cores)
            if self.config.cores > 1 else None)
        self.pcl = PCL(self)
        self.agents: List = []
        #: Observability sink — a shared no-op by default; the harness
        #: installs a live sink before launch.  Hooks only *observe*
        #: per-thread cycle counters, so cycle accounting is identical
        #: whether the sink records or not.
        self.obs = NULL_SINK
        #: Active COZ-style causal experiment (see
        #: repro.harness.causal); None in normal runs.
        self.causal = None

    @property
    def method_invocations(self) -> int:
        """Bytecode-method activations: the sum of the per-method
        invocation counts both tiers keep."""
        return sum(method.invocation_count
                   for cls in self.loader.loaded_classes()
                   for method in cls.methods.values())

    def device_lane(self, device: str) -> int:
        """Trace lane (tid) for a device timeline, registering its name
        on first use.  Distinct negative range from the scheduler's
        per-core lanes (``-(core+1)``)."""
        tid = self._device_lanes.get(device)
        if tid is None:
            tid = -(100 + len(self._device_lanes))
            self._device_lanes[device] = tid
            self.obs.tracer.register_thread(tid, f"dev-{device}")
        return tid

    def block_on_device(self, thread: SimThread, device: str,
                        cycles: int, label: Optional[str] = None) -> int:
        """Elapse ``cycles`` of service time for ``thread`` on
        ``device``'s timeline; returns the blocked cycles charged.

        The device services requests in arrival order: the request
        starts at ``max(device clock, thread wall clock)`` and the
        thread is blocked from its own wall clock until completion.
        With a single thread the two clocks can never run ahead of each
        other, so blocked time equals service time exactly.
        """
        if cycles <= 0:
            return 0
        wall = thread.wall_cycles
        start = max(self.device_clock.get(device, 0), wall)
        completion = start + cycles
        self.device_clock[device] = completion
        blocked = completion - wall
        thread.block(blocked, device)
        if self.obs.enabled:
            self.obs.tracer.complete(
                label or device, "io", self.device_lane(device),
                start, completion,
                {"thread": thread.name, "blocked": blocked})
        return blocked

    # -- configuration ------------------------------------------------------------

    def attach_agent(self, agent) -> None:
        """Attach a profiling agent (before :meth:`launch`)."""
        if self._launched:
            raise VMError("cannot attach agents after launch")
        env = self.jvmti.attach(agent)
        agent.on_load(env)
        for library in agent.native_libraries():
            self.native_registry.register(library, preload=True)
        runtime = agent.runtime_classes()
        if runtime is not None:
            self.loader.prepend_boot_archive(runtime)
        self.agents.append(agent)

    def add_file(self, name: str, data: bytes) -> None:
        """Install an input file into the simulated file system."""
        self.files[name] = data

    def jni_env(self, thread) -> JNIEnv:
        return JNIEnv(self, thread)

    # -- string helper used across the VM ----------------------------------------------

    def intern_string(self, value: str):
        string_class = self.loader.load("java.lang.String")
        return self.heap.intern(string_class, value)

    def new_string(self, value: str):
        string_class = self.loader.load("java.lang.String")
        return self.heap.new_string(string_class, value)

    # -- launch -----------------------------------------------------------------------

    def launch(self, main_class_name: str) -> "JavaVM":
        """Run ``main_class_name.main()V`` to completion and shut down."""
        if self._launched:
            raise VMError("JavaVM instances are single-launch")
        self._launched = True

        main_thread = self.threads.create("main")
        main_thread.state = ThreadState.RUNNING
        self.threads.current = main_thread

        tracer = self.obs.tracer
        tracer.register_thread(main_thread.thread_id, main_thread.name)
        self.thread_state_instant(main_thread, "RUNNING")
        scheduler = self.scheduler
        if scheduler is not None:
            scheduler.attach_main(main_thread)
            scheduler.register_trace_lanes()

        self.jvmti.dispatch_vm_init()
        tracer.instant("VM_INIT", "vm", main_thread.thread_id,
                       main_thread.cycles_total)

        main_class = self.loader.load(main_class_name)
        main_method = main_class.resolve_method("main", MAIN_DESCRIPTOR)
        if main_method is None or not main_method.info.is_static:
            raise NoSuchMethodError(
                f"no static main{MAIN_DESCRIPTOR} in {main_class_name}")

        # like a real launcher, enter Java through the JNI invocation
        # interface — so agents intercepting the JNI function table see
        # the initial native->Java transition of the main thread
        main_start = main_thread.cycles_total
        if scheduler is None:
            try:
                self.jni_env(main_thread).call_static_void_method(
                    main_method)
            except Unwind as unwind:
                self._report_uncaught(main_thread, unwind.jobject)
            self._finish_thread(main_thread)
            tracer.complete(f"thread:{main_thread.name}", "thread",
                            main_thread.thread_id, main_start,
                            main_thread.cycles_total)

            # drain threads that were started but never joined
            while self.threads.has_queued:
                thread = self.threads.dequeue()
                self.run_thread(thread)
        else:
            try:
                try:
                    self.jni_env(main_thread).call_static_void_method(
                        main_method)
                except Unwind as unwind:
                    self._report_uncaught(main_thread, unwind.jobject)
                # wait for every started-but-never-joined thread
                scheduler.drain(main_thread)
            except SchedulerAbort:
                pass
            scheduler.shutdown()
            error = scheduler.abort_error
            if error is not None and not isinstance(error, SchedulerAbort):
                raise error
            self._finish_thread(main_thread)
            tracer.complete(f"thread:{main_thread.name}", "thread",
                            main_thread.thread_id, main_start,
                            main_thread.cycles_total)

        self.threads.current = None
        self.jvmti.dispatch_vm_death()
        tracer.instant("VM_DEATH", "vm", HARNESS_TID,
                       self.threads.total_cycles())
        return self

    def run_thread(self, thread: SimThread) -> None:
        """Execute a queued thread to completion (called by the drain
        loop and by ``Thread.join``)."""
        if thread.state is ThreadState.TERMINATED:
            return
        if thread.state is ThreadState.RUNNING:
            raise VMError(f"thread {thread.name!r} is already running "
                          f"(self-join?)")
        previous = self.threads.current
        self.threads.current = thread
        thread.state = ThreadState.RUNNING
        tracer = self.obs.tracer
        tracer.register_thread(thread.thread_id, thread.name)
        self.thread_state_instant(thread, "RUNNING")
        thread_start = thread.cycles_total
        self.jvmti.dispatch_thread_start(thread)
        run_method = None
        if thread.java_object is not None:
            run_method = thread.java_object.jclass.resolve_method(
                "run", "()V")
        if run_method is None:
            raise VMError(f"thread {thread.name!r} has no run()V")
        try:
            # thread bootstrap enters run() through the JNI interface,
            # so the initial N2J transition is interceptable
            self.jni_env(thread).call_void_method(
                thread.java_object, run_method)
        except Unwind as unwind:
            self._report_uncaught(thread, unwind.jobject)
        self._finish_thread(thread)
        tracer.complete(f"thread:{thread.name}", "thread",
                        thread.thread_id, thread_start,
                        thread.cycles_total)
        self.threads.current = previous

    def start_thread(self, thread: SimThread) -> None:
        """``Thread.start``: hand the thread to the scheduler, or queue
        it for sequential execution."""
        if self.sanitizer is not None:
            # HB edge: everything the parent did precedes the child
            self.sanitizer.on_start(self.threads.current, thread)
        if self.scheduler is not None:
            self.scheduler.start_thread(thread)
        else:
            self.threads.enqueue(thread)

    def join_thread(self, thread: SimThread) -> None:
        """``Thread.join``: block (scheduler) or run the target to
        completion now (sequential model)."""
        joiner = self.threads.current
        if self.scheduler is not None:
            self.scheduler.join(joiner, thread)
        else:
            self.ensure_thread_finished(thread)
        if self.sanitizer is not None:
            # HB edge: the joiner resumes after the joined thread's
            # entire execution (the target has terminated by now)
            self.sanitizer.on_join(joiner, thread)

    def ensure_thread_finished(self, thread: SimThread) -> None:
        """``Thread.join`` semantics under the sequential model: run the
        joined thread to completion now if it has not run yet."""
        current = self.threads.current
        if thread is current:
            cycle = [(thread.name, "join", thread.name)]
            raise DeadlockError(
                f"deadlock: {thread.name} joins itself: "
                + DeadlockError.render_cycle(cycle), cycle=cycle)
        if thread.state is ThreadState.QUEUED:
            self.threads.dequeue(thread)
            self.run_thread(thread)
        elif thread.state is ThreadState.RUNNING:
            # the target is suspended below us on the host stack; under
            # the sequential model it can only resume after the current
            # thread returns — a guaranteed wait-for cycle
            waiter = current.name if current is not None else "?"
            cycle = [(waiter, f"join {thread.name}", thread.name),
                     (thread.name, "host-stack resumption", waiter)]
            raise DeadlockError(
                "deadlock: join on running thread under the sequential "
                "model: " + DeadlockError.render_cycle(cycle),
                cycle=cycle)
        # NEW (never started) and TERMINATED both return immediately,
        # matching java.lang.Thread.join.

    def scheduled_thread_body(self, thread: SimThread) -> None:
        """Body of one scheduler-dispatched worker thread (runs on its
        own host thread; execution is serialized by the scheduler)."""
        tracer = self.obs.tracer
        tracer.register_thread(thread.thread_id, thread.name)
        thread_start = thread.cycles_total
        self.jvmti.dispatch_thread_start(thread)
        run_method = None
        if thread.java_object is not None:
            run_method = thread.java_object.jclass.resolve_method(
                "run", "()V")
        if run_method is None:
            raise VMError(f"thread {thread.name!r} has no run()V")
        try:
            self.jni_env(thread).call_void_method(
                thread.java_object, run_method)
        except Unwind as unwind:
            self._report_uncaught(thread, unwind.jobject)
        self.jvmti.dispatch_thread_end(thread)
        tracer.complete(f"thread:{thread.name}", "thread",
                        thread.thread_id, thread_start,
                        thread.cycles_total)

    def _finish_thread(self, thread: SimThread) -> None:
        self.jvmti.dispatch_thread_end(thread)
        thread.state = ThreadState.TERMINATED
        self.thread_state_instant(thread, "TERMINATED")

    def thread_state_instant(self, thread: SimThread,
                             state: str) -> None:
        """Emit a thread-state transition mark on the thread's trace
        lane (RUNNING/RUNNABLE/BLOCKED/PARKED/TERMINATED).  Host-side
        only — zero simulated cycles."""
        self.obs.tracer.instant("thread-state", "sched",
                                thread.thread_id, thread.cycles_total,
                                {"state": state})

    def _report_uncaught(self, thread: SimThread, jobject) -> None:
        thread.uncaught_exception = jobject
        message = ""
        msg_obj = getattr(jobject, "fields", {}).get("message")
        if msg_obj is not None and \
                getattr(msg_obj, "string_value", None) is not None:
            message = f": {msg_obj.string_value}"
        line = (f'Exception in thread "{thread.name}" '
                f"{getattr(jobject, 'class_name', '<exception>')}{message}")
        self.console.append(line)
        self.thread_deaths.append(line)

    # -- class-initializer support (called by the loader) --------------------------------

    def run_class_initializer(self, loaded_class, clinit) -> None:
        thread = self.threads.current
        if thread is None:
            raise VMError(
                f"<clinit> of {loaded_class.name} outside a thread")
        self.interpreter.call_method(thread, clinit, [])

    # -- results ---------------------------------------------------------------------------

    @property
    def total_cycles(self) -> int:
        return self.threads.total_cycles()

    @property
    def total_blocked(self) -> int:
        """Off-CPU cycles spent blocked on devices, across all threads."""
        return self.threads.total_blocked()

    @property
    def wall_cycles(self) -> int:
        """Virtual wall clock of the run.

        Sequential model: one CPU, so wall time is CPU time plus the
        gaps the single thread spent blocked.  Under the preemptive
        scheduler it is the latest clock anywhere in the machine — the
        busiest core or the busiest device, whichever finished last
        (per-thread blocked gaps overlap with other threads running).
        """
        if self.scheduler is None:
            return self.total_cycles + self.total_blocked
        clocks = list(self.scheduler.core_clock)
        clocks.extend(self.device_clock.values())
        return max(clocks) if clocks else 0

    @property
    def elapsed_seconds(self) -> float:
        return units.cycles_to_seconds(self.total_cycles,
                                       self.config.clock_hz)

    def ground_truth(self) -> Dict[str, int]:
        """Tagged cycle totals across all threads (the oracle the agents
        are validated against)."""
        totals = self.threads.total_by_tag()
        return {tag.value: cycles for tag, cycles in totals.items()}

    def ground_truth_native_fraction(self) -> float:
        """Ground-truth fraction of application time spent in native
        code: native / (native + bytecode)."""
        totals = self.threads.total_by_tag()
        native = totals[ChargeTag.NATIVE]
        bytecode = totals[ChargeTag.BYTECODE]
        if native + bytecode == 0:
            return 0.0
        return native / (native + bytecode)

    def agent_reports(self) -> Dict[str, Dict]:
        return {agent.name: agent.report() for agent in self.agents}
