"""SPA — the Simple Profiling Agent (Figure 1 of the paper).

Faithful port of the paper's pseudo-code: per-thread contexts in JVMTI
thread-local storage, a reified boolean stack mirroring the Java call
stack (``True`` = native frame), PCL timestamps taken **only** on
bytecode<->native transitions, and a raw monitor guarding the global
totals folded in at ThreadEnd.

The fatal flaw is inherited faithfully too: SPA requests the
``can_generate_method_entry/exit_events`` capabilities, which disables
JIT compilation for the whole run.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.jvmti.agent import AgentBase
from repro.jvmti.capabilities import Capabilities
from repro.jvmti.events import JvmtiEvent

#: Simulated cycles of C-level work per event callback beyond JVMTI
#: dispatch and TLS/PCL costs (stack push/pop, isNative query, checks).
#: Thread callbacks charge it themselves; for MethodEntry/MethodExit
#: the host charges it with the dispatch (:meth:`SPA.method_event_work`).
EVENT_WORK = 200
#: Extra cycles on a detected transition (counter update, store).
TRANSITION_WORK = 25


class _ThreadContext:
    """TC_SPA from Figure 1 (plus an off-CPU watermark)."""

    __slots__ = ("timestamp", "time_bytecode", "time_native", "stack",
                 "blocked_mark")

    def __init__(self, timestamp: int, blocked_mark: int = 0):
        self.timestamp = timestamp
        self.time_bytecode = 0
        self.time_native = 0
        self.stack: List[bool] = []
        #: Last observed per-thread blocked-cycle total; deltas fold
        #: into the agent's off-CPU tally at ThreadEnd.  A host-side
        #: peek (PCL counts CPU cycles only), so it adds zero charge.
        self.blocked_mark = blocked_mark


class SPA(AgentBase):
    """The simple profiling agent."""

    name = "spa"

    def __init__(self):
        super().__init__()
        self.total_time_bytecode = 0
        self.total_time_native = 0
        self.total_time_blocked = 0
        self.java_method_invocations = 0
        self.native_method_invocations = 0
        self._monitor = None
        self._vm_death_seen = False
        from repro.observability.tracer import NULL_TRACER
        self._tracer = NULL_TRACER

    # -- Agent_OnLoad ----------------------------------------------------------

    def on_load(self, env) -> None:
        super().on_load(env)
        env.add_capabilities(Capabilities(
            can_generate_method_entry_events=True,
            can_generate_method_exit_events=True,
        ))
        env.set_event_callbacks({
            JvmtiEvent.THREAD_START: self._thread_start,
            JvmtiEvent.THREAD_END: self._thread_end,
            JvmtiEvent.METHOD_ENTRY: self._method_entry,
            JvmtiEvent.METHOD_EXIT: self._method_exit,
            JvmtiEvent.VM_DEATH: self._vm_death,
        })
        for event in (JvmtiEvent.THREAD_START, JvmtiEvent.THREAD_END,
                      JvmtiEvent.METHOD_ENTRY, JvmtiEvent.METHOD_EXIT,
                      JvmtiEvent.VM_DEATH):
            env.enable_event(event)
        self._monitor = env.create_raw_monitor("spa-globals")
        # observability: transition markers peek at the cycle counter
        # (zero simulated cost; totals identical with tracing on/off)
        self._tracer = env.observer.tracer

    def method_event_work(self, cost_model) -> Tuple[int, ...]:
        """The callback work, then the ``GetThreadLocalStorage`` read of
        the thread's context (the method callbacks read it uncharged)."""
        return (EVENT_WORK, cost_model.jvmti_tls_access)

    # -- helper: TLS allocation on demand ---------------------------------------
    # (the JVMTI does not signal ThreadStart for the bootstrapping
    # thread, so contexts must be allocatable lazily — paper, Sec. III)

    def _allocate(self, env, thread) -> _ThreadContext:
        tc = _ThreadContext(env.pcl.get_timestamp(thread),
                            thread.blocked_total)
        env.tls_put(thread, tc)
        return tc

    # -- JVMTI events --------------------------------------------------------------

    def _thread_start(self, env, thread) -> None:
        env.charge(EVENT_WORK, thread)
        self._allocate(env, thread)

    def _thread_end(self, env, thread) -> None:
        env.charge(EVENT_WORK, thread)
        tc = env.tls_get(thread)
        if tc is None:
            tc = self._allocate(env, thread)
        in_native = tc.stack[-1] if tc.stack else True
        now = env.pcl.get_timestamp(thread)
        delta = now - tc.timestamp
        if in_native:
            tc.time_native += delta
        else:
            tc.time_bytecode += delta
        blocked_now = thread.blocked_total
        env.raw_monitor_enter(self._monitor)
        self.total_time_bytecode += tc.time_bytecode
        self.total_time_native += tc.time_native
        self.total_time_blocked += blocked_now - tc.blocked_mark
        env.raw_monitor_exit(self._monitor)
        # reset the context so a duplicate THREAD_END (or any later
        # fold) cannot double-count the already-folded interval
        tc.time_bytecode = 0
        tc.time_native = 0
        tc.timestamp = now
        tc.blocked_mark = blocked_now

    def _method_entry(self, env, thread, method) -> None:
        tc = env.tls.get(thread)
        if tc is None:
            tc = self._allocate(env, thread)
        is_native = method.is_native
        if is_native:
            self.native_method_invocations += 1
        else:
            self.java_method_invocations += 1
        caller_native = tc.stack[-1] if tc.stack else True
        if is_native != caller_native:
            env.charge(TRANSITION_WORK, thread)
            now = env.pcl.get_timestamp(thread)
            delta = now - tc.timestamp
            if caller_native:
                tc.time_native += delta
            else:
                tc.time_bytecode += delta
            tc.timestamp = now
            if self._tracer.enabled:
                self._tracer.instant(
                    "spa:J->N" if is_native else "spa:N->J",
                    "transition", thread.thread_id,
                    thread.cycles_total)
        tc.stack.append(is_native)

    def _method_exit(self, env, thread, method, by_exception) -> None:
        tc = env.tls.get(thread)
        if tc is None:
            tc = self._allocate(env, thread)
        if not tc.stack:
            return  # entry was missed (agent attached mid-frame)
        is_native = tc.stack.pop()
        caller_native = tc.stack[-1] if tc.stack else True
        if is_native != caller_native:
            env.charge(TRANSITION_WORK, thread)
            now = env.pcl.get_timestamp(thread)
            delta = now - tc.timestamp
            if is_native:
                tc.time_native += delta
            else:
                tc.time_bytecode += delta
            tc.timestamp = now
            if self._tracer.enabled:
                self._tracer.instant(
                    "spa:N->J" if is_native else "spa:J->N",
                    "transition", thread.thread_id,
                    thread.cycles_total)

    def _vm_death(self, env) -> None:
        self._vm_death_seen = True

    # -- results ------------------------------------------------------------------------

    @property
    def percent_native(self) -> float:
        total = self.total_time_bytecode + self.total_time_native
        if total == 0:
            return 0.0
        return 100.0 * self.total_time_native / total

    @property
    def percent_blocked(self) -> float:
        """Off-CPU share of wall time: blocked / (on-CPU + blocked)."""
        wall = (self.total_time_bytecode + self.total_time_native
                + self.total_time_blocked)
        if wall == 0:
            return 0.0
        return 100.0 * self.total_time_blocked / wall

    def report(self) -> Dict:
        report = {
            "agent": self.name,
            "total_time_bytecode": self.total_time_bytecode,
            "total_time_native": self.total_time_native,
            "percent_native": self.percent_native,
            "java_method_invocations": self.java_method_invocations,
            "native_method_invocations": self.native_method_invocations,
            "vm_death_seen": self._vm_death_seen,
        }
        if self.total_time_blocked:
            # additive: only runs that actually blocked report the
            # off-CPU split, so non-I/O reports stay byte-identical
            report["total_time_blocked"] = self.total_time_blocked
            report["percent_blocked"] = self.percent_blocked
        return report
