"""Related-work baseline: invocation counting without timing.

Models the approach of Gregg/Power/Waldron (paper Section VI): an
instrumented Kaffe VM *without JIT compilation* counting native method
invocations.  Here that is an agent that requests method-entry events
(thereby disabling the JIT, as in the purely interpreted Kaffe) and
increments counters — it recovers the Table II call counts but can say
nothing about where CPU time goes, the paper's criticism.  The missing
JIT shows in simulated cycles only: hot methods still run as templates
on the host, charging interpreted costs.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.jvmti.agent import AgentBase
from repro.jvmti.capabilities import Capabilities
from repro.jvmti.events import JvmtiEvent

#: Cycles per event: a bare counter increment, charged by the host
#: with each MethodEntry dispatch (:meth:`CountingAgent.method_event_work`).
EVENT_WORK = 12


class CountingAgent(AgentBase):
    """Counts Java and native method invocations."""

    name = "counting"

    def __init__(self):
        super().__init__()
        self.java_method_invocations = 0
        self.native_method_invocations = 0

    def on_load(self, env) -> None:
        super().on_load(env)
        env.add_capabilities(Capabilities(
            can_generate_method_entry_events=True))
        env.set_event_callbacks({
            JvmtiEvent.METHOD_ENTRY: self._method_entry,
        })
        env.enable_event(JvmtiEvent.METHOD_ENTRY)

    def method_event_work(self, cost_model) -> Tuple[int, ...]:
        return (EVENT_WORK,)

    def _method_entry(self, env, thread, method) -> None:
        if method.is_native:
            self.native_method_invocations += 1
        else:
            self.java_method_invocations += 1

    def report(self) -> Dict:
        return {
            "agent": self.name,
            "java_method_invocations": self.java_method_invocations,
            "native_method_invocations": self.native_method_invocations,
        }
