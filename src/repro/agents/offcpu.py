"""Off-CPU (wall-clock) profiling — blocked-samples over the CCT.

The callchain agent attributes *CPU* cycles to calling contexts; this
agent extends the same calling-context tree with the dimension
conventional profilers miss entirely: time the thread spent **off
CPU**, parked on a simulated device while a blocking native ran
(DESIGN.md §13).  Every context carries two inclusive weights — CPU
cycles (from PCL timestamps, which count only on-CPU time) and
blocked cycles (from the per-thread blocked counter, a host-side peek
that charges nothing) — so wall-clock folded stacks can be exported
with blocked frames suffixed ``_[offcpu]`` (see
:func:`repro.observability.flamegraph.write_wall_folded`).

Like callchain it rides the method entry/exit events, so it pays the
no-JIT price in simulated cycles (hot methods still run as templates
on the host, charging interpreted costs).
"""

from __future__ import annotations

from typing import Dict, List

from repro.agents.callchain import CallChainAgent, CCTNode


class OffCpuNode(CCTNode):
    """A calling context with CPU *and* blocked inclusive weights."""

    __slots__ = ("blocked_inclusive",)

    def __init__(self, method_name: str, is_native: bool):
        super().__init__(method_name, is_native)
        self.blocked_inclusive = 0

    def child(self, method_name: str, is_native: bool) -> "OffCpuNode":
        node = self.children.get(method_name)
        if node is None:
            node = OffCpuNode(method_name, is_native)
            self.children[method_name] = node
        return node


class OffCpuAgent(CallChainAgent):
    """CCT profiler with per-context on-CPU/blocked attribution."""

    name = "offcpu"
    node_class = OffCpuNode

    # entry/exit mirror CallChainAgent's, with the entry stack holding
    # (cpu timestamp, blocked watermark) pairs instead of bare
    # timestamps — the blocked read is a free host-side peek, so the
    # agent's charges (and the run's tables) are identical to
    # callchain's

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
        node._entry_stack.append((env.pcl.get_timestamp(thread),
                                  thread.blocked_total))
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
            entered, blocked_mark = node._entry_stack.pop()
            node.inclusive_cycles += \
                env.pcl.get_timestamp(thread) - entered
            node.blocked_inclusive += \
                thread.blocked_total - blocked_mark
        if self._tracer.enabled:
            self._tracer.end(node.method_name, "method",
                             thread.thread_id, thread.cycles_total)

    # -- analysis (host side, after the run) ------------------------------------

    @property
    def total_blocked(self) -> int:
        return sum(child.blocked_inclusive
                   for _, root in self.roots
                   for child in root.children.values())

    def blocked_contexts(self) -> List[Dict]:
        """Contexts with blocked time, heaviest first."""
        result = []
        for _, root in self.roots:
            for chain, node in root.walk():
                if node.blocked_inclusive > 0 and len(chain) > 1:
                    result.append({
                        "chain": list(chain[1:]),
                        "calls": node.calls,
                        "cpu_cycles": node.inclusive_cycles,
                        "blocked_cycles": node.blocked_inclusive,
                    })
        result.sort(key=lambda item: -item["blocked_cycles"])
        return result

    def report(self) -> Dict:
        blocked = self.blocked_contexts()
        return {
            "agent": self.name,
            "threads": len(self.roots),
            "total_time_blocked": self.total_blocked,
            "blocked_contexts": len(blocked),
            "hottest_blocked_contexts": blocked[:10],
        }
