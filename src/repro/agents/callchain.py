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

#: Cycles of C-level work per event callback (CCT step, stack push or
#: pop).  The host charges it with each MethodEntry/MethodExit dispatch
#: (:meth:`CallChainAgent.method_event_work`); ThreadEnd charges it
#: itself.
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


class CallChainAgent(AgentBase):
    """Builds per-thread mixed Java/native calling-context trees."""

    name = "callchain"
    #: Node type of the calling-context trees.
    node_class = CCTNode

    def __init__(self, max_depth: int = 64):
        super().__init__()
        self.max_depth = max_depth
        #: ``(thread name, CCT root)`` per simulated thread, in the
        #: order of their first method event.  Names may repeat.
        self.roots: List[Tuple[str, CCTNode]] = []
        #: Per thread id, the open calling contexts; the bottom entry
        #: is the thread's root.
        self._stacks: Dict[int, List[CCTNode]] = {}
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

    def method_event_work(self, cost_model) -> Tuple[int, ...]:
        return (EVENT_WORK,)

    def _stack(self, thread) -> List[CCTNode]:
        stack = self._stacks.get(thread.thread_id)
        if stack is None:
            root = self.node_class("<thread>", is_native=True)
            stack = self._stacks[thread.thread_id] = [root]
            self.roots.append((thread.name, root))
        return stack

    def _method_entry(self, env, thread, method) -> None:
        stack = self._stack(thread)
        if len(stack) >= self.max_depth:
            folded = stack[-1]
            stack.append(folded)  # depth-capped: fold
            if self._tracer.enabled:
                self._tracer.begin(folded.method_name, "method",
                                   thread.thread_id,
                                   thread.cycles_total)
            return
        node = stack[-1].child(method.qualified_name, method.is_native)
        node.calls += 1
        node._entry_stack.append(env.pcl.get_timestamp(thread))
        stack.append(node)
        if self._tracer.enabled:
            self._tracer.begin(node.method_name, "method",
                               thread.thread_id, thread.cycles_total)

    def _method_exit(self, env, thread, method, by_exception) -> None:
        stack = self._stack(thread)
        if len(stack) <= 1:
            return  # unmatched exit (agent attached mid-frame)
        node = stack.pop()
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
        for _, root in self.roots:
            for chain, node in root.walk():
                if node.is_native and node.calls >= min_calls and \
                        len(chain) > 2:
                    result.append(
                        (chain[1:], node.calls, node.inclusive_cycles))
        result.sort(key=lambda item: -item[2])
        return result

    def deepest_chain(self) -> Optional[Tuple[str, ...]]:
        deepest = None
        for _, root in self.roots:
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
