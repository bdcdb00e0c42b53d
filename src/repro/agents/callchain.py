"""Mixed Java/native call-chain profiling — the paper's future work.

Section VII: "we are currently working on an extension which consists
in tracking complete call chains including a mix of Java and native
methods".  This agent realises that extension over the simulator: it
builds a calling-context tree (CCT) whose nodes are methods tagged
Java/native, attributing inclusive cycle time and invocation counts to
every mixed-mode chain.

It necessarily uses the method entry/exit events (so, like SPA, it pays
the no-JIT price — the paper's point that this capability "opens up new
debugging and profiling perspectives" at a cost current profilers
cannot pay portably).  The price is in simulated cycles, not host
speed: hot methods still run as templates, charging interpreted costs.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.jvmti.agent import AgentBase
from repro.jvmti.capabilities import Capabilities
from repro.jvmti.events import JvmtiEvent

EVENT_WORK = 55


class CCTNode:
    """One calling context: a method reached through a specific chain."""

    __slots__ = ("method_name", "is_native", "children", "calls",
                 "inclusive_cycles", "_entry_stack")

    def __init__(self, method_name: str, is_native: bool):
        self.method_name = method_name
        self.is_native = is_native
        self.children: Dict[str, "CCTNode"] = {}
        self.calls = 0
        self.inclusive_cycles = 0
        self._entry_stack: List[int] = []

    def child(self, method_name: str, is_native: bool) -> "CCTNode":
        node = self.children.get(method_name)
        if node is None:
            node = CCTNode(method_name, is_native)
            self.children[method_name] = node
        return node

    def walk(self, prefix: Tuple[str, ...] = ()):
        """Yield ``(chain, node)`` pairs depth-first."""
        chain = prefix + (self.method_name,)
        yield chain, self
        for node in self.children.values():
            yield from node.walk(chain)


class _ThreadState:
    __slots__ = ("root", "stack")

    def __init__(self):
        self.root = CCTNode("<thread>", is_native=True)
        self.stack: List[CCTNode] = [self.root]


class CallChainAgent(AgentBase):
    """Builds per-thread mixed Java/native calling-context trees."""

    name = "callchain"

    def __init__(self, max_depth: int = 64):
        super().__init__()
        self.max_depth = max_depth
        self.roots: Dict[str, CCTNode] = {}
        self._states: Dict[int, _ThreadState] = {}
        from repro.observability.tracer import NULL_TRACER
        self._tracer = NULL_TRACER

    def on_load(self, env) -> None:
        super().on_load(env)
        env.add_capabilities(Capabilities(
            can_generate_method_entry_events=True,
            can_generate_method_exit_events=True,
        ))
        env.set_event_callbacks({
            JvmtiEvent.METHOD_ENTRY: self._method_entry,
            JvmtiEvent.METHOD_EXIT: self._method_exit,
            JvmtiEvent.THREAD_END: self._thread_end,
        })
        for event in (JvmtiEvent.METHOD_ENTRY, JvmtiEvent.METHOD_EXIT,
                      JvmtiEvent.THREAD_END):
            env.enable_event(event)
        # observability: method spans are emitted by peeking at the
        # thread cycle counter — the CCT totals are bit-identical with
        # tracing on or off
        self._tracer = env.observer.tracer

    def _state(self, thread) -> _ThreadState:
        state = self._states.get(thread.thread_id)
        if state is None:
            state = _ThreadState()
            self._states[thread.thread_id] = state
            self.roots[thread.name] = state.root
        return state

    def _method_entry(self, env, thread, method) -> None:
        env.charge(EVENT_WORK, thread)
        state = self._state(thread)
        if len(state.stack) >= self.max_depth:
            folded = state.stack[-1]
            state.stack.append(folded)  # depth-capped: fold
            if self._tracer.enabled:
                self._tracer.begin(folded.method_name, "method",
                                   thread.thread_id,
                                   thread.cycles_total)
            return
        node = state.stack[-1].child(method.qualified_name,
                                     method.is_native)
        node.calls += 1
        node._entry_stack.append(env.pcl.get_timestamp(thread))
        state.stack.append(node)
        if self._tracer.enabled:
            self._tracer.begin(node.method_name, "method",
                               thread.thread_id, thread.cycles_total)

    def _method_exit(self, env, thread, method, by_exception) -> None:
        env.charge(EVENT_WORK, thread)
        state = self._state(thread)
        if len(state.stack) <= 1:
            return  # unmatched exit (agent attached mid-frame)
        node = state.stack.pop()
        if node._entry_stack:
            entered = node._entry_stack.pop()
            node.inclusive_cycles += \
                env.pcl.get_timestamp(thread) - entered
        if self._tracer.enabled:
            self._tracer.end(node.method_name, "method",
                             thread.thread_id, thread.cycles_total)

    def _thread_end(self, env, thread) -> None:
        env.charge(EVENT_WORK, thread)

    # -- analysis (host side, after the run) ------------------------------------

    def mixed_chains(self, min_calls: int = 1
                     ) -> List[Tuple[Tuple[str, ...], int, int]]:
        """All chains that cross the Java/native boundary at least once:
        ``(chain, calls, inclusive_cycles)``, most expensive first."""
        result = []
        for root in self.roots.values():
            for chain, node in root.walk():
                if node.is_native and node.calls >= min_calls and \
                        len(chain) > 2:
                    result.append(
                        (chain[1:], node.calls, node.inclusive_cycles))
        result.sort(key=lambda item: -item[2])
        return result

    def deepest_chain(self) -> Optional[Tuple[str, ...]]:
        deepest = None
        for root in self.roots.values():
            for chain, _ in root.walk():
                if deepest is None or len(chain) > len(deepest):
                    deepest = chain
        return deepest[1:] if deepest else None

    def report(self) -> Dict:
        chains = self.mixed_chains()
        return {
            "agent": self.name,
            "threads": len(self.roots),
            "mixed_native_chains": len(chains),
            "hottest_mixed_chains": [
                {"chain": list(chain), "calls": calls,
                 "inclusive_cycles": cycles}
                for chain, calls, cycles in chains[:10]
            ],
        }
