"""Preemptive N-core scheduler: crash-path bugfixes and determinism.

Four seed crash paths are pinned here with regression tests:

* contended ``MONITORENTER`` blocks the acquirer under the scheduler
  instead of crashing the host with ``DeadlockError``;
* ``MONITOREXIT`` by a non-owner (or past count zero) raises the
  *Java* ``IllegalMonitorStateException``, catchable by bytecode;
* joining a running thread produces the deadlock detector's structured
  report (``DeadlockError.cycle`` names every wait-for edge) in both
  the sequential and the scheduled model;
* a thread that dies with an uncaught exception in the drain phase is
  recorded (``vm.thread_deaths``, the ``uncaught_thread_exceptions``
  metric) and makes the table commands exit non-zero.

Every one of those abort paths also joins the host threads the
scheduler started: the host thread count returns to its baseline.  So
does the abort a JVMTI callback's error on a worker thread starts,
which must reach the caller as that error.

Plus the scheduler guarantees: repeat runs are byte-identical, both
execution tiers agree on every simulated cycle at any core count, and
``--cores 1`` keeps the legacy sequential semantics.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.bytecode.assembler import ClassAssembler
from repro.cli import main
from repro.errors import DeadlockError
from repro.harness.config import AgentSpec, RunConfig
from repro.harness.runner import execute
from repro.jvm.machine import VMConfig
from repro.jvmti.agent import AgentBase
from repro.jvmti.capabilities import Capabilities
from repro.jvmti.events import JvmtiEvent
from repro.observability import ObservabilityConfig
from repro.workloads import get_workload
from repro.workloads.base import Workload
from repro.workloads.suite import _REGISTRY, register
from tests.helpers import build_app, run_main

SPIN = 60_000  # loop iterations; several quanta of simulated cycles


def _locker_app():
    """Two threads serialize a long critical section on one lock."""
    c = ClassAssembler("t.Locker", super_name="java.lang.Thread")
    c.field("lock")
    c.field("done", default=0)
    with c.method("<init>", "(Ljava.lang.Object;)V") as m:
        m.aload(0).aload(1).putfield("t.Locker", "lock")
        m.return_()
    with c.method("run", "()V") as m:
        m.aload(0).getfield("t.Locker", "lock").monitorenter()
        m.iconst(0).istore(1)
        m.label("spin")
        m.iload(1).ldc(SPIN).if_icmpge("out")
        m.iinc(1, 1).goto("spin")
        m.label("out")
        m.aload(0).getfield("t.Locker", "lock").monitorexit()
        m.aload(0).iconst(1).putfield("t.Locker", "done")
        m.return_()

    main_c = ClassAssembler("t.Main")
    with main_c.method("main", "()V", static=True) as m:
        m.new("java.lang.Object").dup()
        m.invokespecial("java.lang.Object", "<init>", "()V").astore(0)
        for slot in (1, 2):
            m.new("t.Locker").dup().aload(0)
            m.invokespecial("t.Locker", "<init>",
                            "(Ljava.lang.Object;)V")
            m.astore(slot)
        for slot in (1, 2):
            m.aload(slot).invokevirtual("t.Locker", "start", "()V")
        for slot in (1, 2):
            m.aload(slot).invokevirtual("t.Locker", "join", "()V")
        m.getstatic("java.lang.System", "out")
        m.aload(1).getfield("t.Locker", "done")
        m.aload(2).getfield("t.Locker", "done").iadd()
        m.invokevirtual("java.io.PrintStream", "println", "(I)V")
        m.return_()
    return build_app(c, main_c)


class TestContendedMonitor:
    def test_contended_enter_blocks_instead_of_crashing(self):
        # seed code raised a host DeadlockError the moment the second
        # thread touched the held monitor; under the scheduler it must
        # block, be handed the lock, and finish
        vm = run_main(_locker_app(), "t.Main",
                      config=VMConfig(cores=2))
        assert vm.console[-1] == "2"
        assert vm.scheduler.monitor_contentions >= 1
        assert vm.scheduler.deadlocks_detected == 0

    def test_sequential_contention_is_a_structured_error(self):
        # at --cores 1 a contended monitor still cannot block (there
        # is one host stack); the error must now carry the wait-for
        # cycle instead of an ad-hoc message
        holder = ClassAssembler("t.Holder",
                                super_name="java.lang.Thread")
        holder.field("lock")
        with holder.method("<init>", "(Ljava.lang.Object;)V") as m:
            m.aload(0).aload(1).putfield("t.Holder", "lock")
            m.return_()
        with holder.method("run", "()V") as m:
            # acquire and return still holding the monitor
            m.aload(0).getfield("t.Holder", "lock").monitorenter()
            m.return_()
        main_c = ClassAssembler("t.Main")
        with main_c.method("main", "()V", static=True) as m:
            m.new("java.lang.Object").dup()
            m.invokespecial("java.lang.Object", "<init>", "()V")
            m.astore(0)
            m.new("t.Holder").dup().aload(0)
            m.invokespecial("t.Holder", "<init>",
                            "(Ljava.lang.Object;)V").astore(1)
            m.aload(1).invokevirtual("t.Holder", "start", "()V")
            m.aload(1).invokevirtual("t.Holder", "join", "()V")
            m.aload(0).monitorenter()
            m.return_()
        with pytest.raises(DeadlockError) as excinfo:
            run_main(build_app(holder, main_c), "t.Main")
        assert excinfo.value.cycle, "cycle must name the wait-for edges"
        assert any("monitor" in resource
                   for _, resource, _ in excinfo.value.cycle)


class TestIllegalMonitorState:
    def _caught_app(self, body):
        """main() runs ``body`` in a try/catch for IMSE, prints 1 when
        the Java exception was caught."""
        c = ClassAssembler("t.Main")
        with c.method("main", "()V", static=True) as m:
            body(m)
            m.label("try_start")
            m.aload(0).monitorexit()
            m.label("try_end")
            m.getstatic("java.lang.System", "out")
            m.iconst(0)
            m.invokevirtual("java.io.PrintStream", "println", "(I)V")
            m.goto("done")
            m.label("handler")
            m.pop()
            m.getstatic("java.lang.System", "out")
            m.iconst(1)
            m.invokevirtual("java.io.PrintStream", "println", "(I)V")
            m.label("done")
            m.return_()
            m.try_catch("try_start", "try_end", "handler",
                        "java.lang.IllegalMonitorStateException")
        return build_app(c)

    def test_exit_without_enter_is_java_exception(self):
        def body(m):
            m.new("java.lang.Object").dup()
            m.invokespecial("java.lang.Object", "<init>", "()V")
            m.astore(0)
        vm = run_main(self._caught_app(body), "t.Main")
        assert vm.console[-1] == "1"
        assert not vm.thread_deaths

    def test_exit_past_count_zero_is_java_exception(self):
        def body(m):
            m.new("java.lang.Object").dup()
            m.invokespecial("java.lang.Object", "<init>", "()V")
            m.astore(0)
            m.aload(0).monitorenter()
            m.aload(0).monitorexit()
        vm = run_main(self._caught_app(body), "t.Main")
        assert vm.console[-1] == "1"

    def test_non_owner_exit_under_scheduler(self):
        # the held-by-another-thread case, on the scheduler: must be
        # the Java exception, not a host crash or a silent release
        holder = ClassAssembler("t.Holder",
                                super_name="java.lang.Thread")
        holder.field("lock")
        with holder.method("<init>", "(Ljava.lang.Object;)V") as m:
            m.aload(0).aload(1).putfield("t.Holder", "lock")
            m.return_()
        with holder.method("run", "()V") as m:
            m.aload(0).getfield("t.Holder", "lock").monitorenter()
            m.iconst(0).istore(1)
            m.label("spin")
            m.iload(1).ldc(SPIN).if_icmpge("out")
            m.iinc(1, 1).goto("spin")
            m.label("out")
            m.aload(0).getfield("t.Holder", "lock").monitorexit()
            m.return_()
        c = ClassAssembler("t.Main")
        with c.method("main", "()V", static=True) as m:
            m.new("java.lang.Object").dup()
            m.invokespecial("java.lang.Object", "<init>", "()V")
            m.astore(0)
            m.new("t.Holder").dup().aload(0)
            m.invokespecial("t.Holder", "<init>",
                            "(Ljava.lang.Object;)V").astore(1)
            m.aload(1).invokevirtual("t.Holder", "start", "()V")
            m.label("try_start")
            m.aload(0).monitorexit()
            m.label("try_end")
            m.goto("join")
            m.label("handler")
            m.pop()
            m.getstatic("java.lang.System", "out")
            m.iconst(1)
            m.invokevirtual("java.io.PrintStream", "println", "(I)V")
            m.label("join")
            m.aload(1).invokevirtual("t.Holder", "join", "()V")
            m.return_()
            m.try_catch("try_start", "try_end", "handler",
                        "java.lang.IllegalMonitorStateException")
        vm = run_main(build_app(holder, c), "t.Main",
                      config=VMConfig(cores=2))
        assert vm.console[-1] == "1"
        assert not vm.thread_deaths


def _join_cycle_app():
    """Two threads that join each other: a genuine wait-for cycle."""
    w = ClassAssembler("t.W", super_name="java.lang.Thread")
    w.field("peer")
    with w.method("<init>", "()V") as m:
        m.return_()
    with w.method("run", "()V") as m:
        m.aload(0).getfield("t.W", "peer").ifnull("done")
        m.aload(0).getfield("t.W", "peer")
        m.invokevirtual("t.W", "join", "()V")
        m.label("done")
        m.return_()
    c = ClassAssembler("t.Main")
    with c.method("main", "()V", static=True) as m:
        for slot in (0, 1):
            m.new("t.W").dup()
            m.invokespecial("t.W", "<init>", "()V").astore(slot)
        m.aload(0).aload(1).putfield("t.W", "peer")
        m.aload(1).aload(0).putfield("t.W", "peer")
        m.aload(0).invokevirtual("t.W", "start", "()V")
        m.aload(1).invokevirtual("t.W", "start", "()V")
        m.aload(0).invokevirtual("t.W", "join", "()V")
        m.return_()
    return build_app(w, c)


def _self_join_app():
    s = ClassAssembler("t.S", super_name="java.lang.Thread")
    with s.method("<init>", "()V") as m:
        m.return_()
    with s.method("run", "()V") as m:
        m.aload(0).invokevirtual("t.S", "join", "()V")
        m.return_()
    c = ClassAssembler("t.Main")
    with c.method("main", "()V", static=True) as m:
        m.new("t.S").dup()
        m.invokespecial("t.S", "<init>", "()V").astore(0)
        m.aload(0).invokevirtual("t.S", "start", "()V")
        m.aload(0).invokevirtual("t.S", "join", "()V")
        m.return_()
    return build_app(s, c)


class TestJoinDeadlocks:
    @pytest.mark.parametrize("cores", [1, 2])
    def test_self_join_is_structured(self, cores):
        with pytest.raises(DeadlockError) as excinfo:
            run_main(_self_join_app(), "t.Main",
                     config=VMConfig(cores=cores))
        cycle = excinfo.value.cycle
        assert len(cycle) == 1
        waiter, resource, holder = cycle[0]
        assert waiter == holder
        assert "join" in resource

    def test_sequential_join_of_running_reports_cycle(self):
        # seed code raised a bare "would deadlock" error with no
        # explanation of *which* threads form the cycle
        with pytest.raises(DeadlockError) as excinfo:
            run_main(_join_cycle_app(), "t.Main",
                     config=VMConfig(cores=1))
        cycle = excinfo.value.cycle
        assert len(cycle) == 2
        assert any("join" in resource for _, resource, _ in cycle)

    def test_scheduler_detects_join_cycle(self):
        with pytest.raises(DeadlockError) as excinfo:
            run_main(_join_cycle_app(), "t.Main",
                     config=VMConfig(cores=2))
        assert "wait-for cycle" in str(excinfo.value)
        cycle = excinfo.value.cycle
        assert len(cycle) >= 2
        # the cycle is closed: each holder is the next edge's waiter
        waiters = [edge[0] for edge in cycle]
        holders = [edge[2] for edge in cycle]
        assert sorted(waiters) == sorted(holders)


def _dying_thread_classes():
    d = ClassAssembler("t.D", super_name="java.lang.Thread")
    with d.method("<init>", "()V") as m:
        m.return_()
    with d.method("run", "()V") as m:
        m.iconst(1).iconst(0).idiv().pop()
        m.return_()
    c = ClassAssembler("t.Main")
    with c.method("main", "()V", static=True) as m:
        m.new("t.D").dup()
        m.invokespecial("t.D", "<init>", "()V").astore(0)
        m.aload(0).invokevirtual("t.D", "start", "()V")
        m.return_()  # never joined: the death happens in the drain
    return d, c


class _DyingWorkload(Workload):
    """A thread started, never joined, that dies of ArithmeticException
    during the drain phase.  Validation passes — only the death report
    machinery may flag the run."""

    name = "dying-thread-test"
    description = "test-only: drained thread dies uncaught"
    main_class = "t.Main"

    def build_classes(self):
        return build_app(*_dying_thread_classes())


@pytest.fixture()
def dying_registered():
    """Register the test-only workload for CLI lookup, then clean the
    global registry so other test modules see only the real suite."""
    fresh = _DyingWorkload.name not in _REGISTRY
    if fresh:
        register(_DyingWorkload)
    try:
        yield
    finally:
        if fresh:
            _REGISTRY.pop(_DyingWorkload.name, None)


class TestUncaughtThreadDeaths:
    @pytest.mark.parametrize("cores", [1, 2])
    def test_drained_death_is_recorded(self, cores):
        vm = run_main(build_app(*_dying_thread_classes()), "t.Main",
                      config=VMConfig(cores=cores))
        assert len(vm.thread_deaths) == 1
        assert "ArithmeticException" in vm.thread_deaths[0]
        assert vm.thread_deaths[0] in vm.console

    def test_death_is_counted_in_metrics(self):
        result = execute(_DyingWorkload(), RunConfig(
            agent=AgentSpec.none(),
            observability=ObservabilityConfig(metrics=True)))
        assert result.thread_deaths
        records = result.observability["metrics"]
        assert any(r.get("name") == "uncaught_thread_exceptions"
                   and r.get("value") == 1 for r in records)

    def test_table1_exits_nonzero_on_thread_death(self, capsys,
                                                  dying_registered):
        # seed code had no --workloads selector and silently dropped
        # thread deaths on the floor
        code = main(["table1", "--workloads", "dying-thread-test",
                     "--no-ledger"])
        capsys.readouterr()
        assert code == 1

    def test_table2_exits_nonzero_on_thread_death(self, capsys,
                                                  dying_registered):
        code = main(["table2", "--workloads", "dying-thread-test",
                     "--no-ledger"])
        capsys.readouterr()
        assert code == 1


def _host_threads_after(baseline: int, timeout: float = 5.0) -> int:
    """Host thread count once it falls to ``baseline``, or after
    ``timeout`` seconds of polling."""
    deadline = time.monotonic() + timeout
    while threading.active_count() > baseline and \
            time.monotonic() < deadline:
        time.sleep(0.01)
    return threading.active_count()


class _FailingAgent(AgentBase):
    """A method-event agent whose MethodEntry callback raises on the
    first event of any thread but main."""

    name = "failing"

    def on_load(self, env) -> None:
        super().on_load(env)
        env.add_capabilities(Capabilities(
            can_generate_method_entry_events=True))
        env.set_event_callbacks({JvmtiEvent.METHOD_ENTRY: self._entry})
        env.enable_event(JvmtiEvent.METHOD_ENTRY)

    def _entry(self, env, thread, method) -> None:
        if thread.name != "main":
            raise RuntimeError(f"agent failed on {thread.name}")


class TestAbortPathsReleaseHostThreads:
    @pytest.mark.parametrize("app", [_join_cycle_app, _self_join_app],
                             ids=["join-cycle", "self-join"])
    def test_deadlock(self, app):
        baseline = threading.active_count()
        with pytest.raises(DeadlockError):
            run_main(app(), "t.Main", config=VMConfig(cores=2))
        assert _host_threads_after(baseline) <= baseline

    def test_drained_thread_death(self):
        baseline = threading.active_count()
        vm = run_main(build_app(*_dying_thread_classes()), "t.Main",
                      config=VMConfig(cores=2))
        assert vm.thread_deaths
        assert _host_threads_after(baseline) <= baseline

    def test_method_event_callback_error_on_a_worker(self):
        # the worker's host thread aborts the run: threads parked in
        # the scheduler wake into SchedulerAbort, and main re-raises
        # the callback's own error out of the run
        baseline = threading.active_count()
        config = RunConfig(agent=AgentSpec("failing", _FailingAgent),
                           vm_config=VMConfig(cores=2))
        errors = []

        def run():
            try:
                execute(get_workload("fj-kmeans"), config)
            except RuntimeError as exc:
                errors.append(exc)

        runner = threading.Thread(target=run, daemon=True)
        runner.start()
        runner.join(timeout=30)
        assert not runner.is_alive(), "the aborted run hangs"
        assert len(errors) == 1 and type(errors[0]) is RuntimeError
        assert str(errors[0]).startswith("agent failed on Thread-")
        assert _host_threads_after(baseline) <= baseline


class TestSchedulerDeterminism:
    def _run(self, cores, template=True):
        from repro.jit.policy import JitPolicy
        w = get_workload("fj-kmeans")
        config = RunConfig(agent=AgentSpec.none(), vm_config=VMConfig(
            jit_policy=JitPolicy(template_tier=template), cores=cores))
        return execute(w, config)

    def test_repeat_runs_identical(self):
        first = self._run(cores=4)
        second = self._run(cores=4)
        assert first.cycles == second.cycles
        assert first.core_clocks == second.core_clocks
        assert first.console == second.console

    def test_tiers_agree_at_every_core_count(self):
        for cores in (1, 2, 4):
            interp = self._run(cores, template=False)
            template = self._run(cores, template=True)
            assert interp.cycles == template.cycles
            assert interp.core_clocks == template.core_clocks
            assert interp.console == template.console

    @pytest.mark.parametrize("template", [False, True],
                             ids=["interp", "template"])
    def test_multiple_cores_are_effective(self, template):
        result = self._run(cores=4, template=template)
        busy = [clock for clock in result.core_clocks if clock > 0]
        assert len(busy) >= 2, result.core_clocks
