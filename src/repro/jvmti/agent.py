"""Agent base class.

A profiling agent in this system is the analogue of a JVMTI shared
library: it gets an ``Agent_OnLoad`` moment (:meth:`on_load`) where it
requests capabilities, registers callbacks, and enables events; it may
ship native libraries (the paper's IPA exposes its transition routines
as native methods of a runtime class); and it may preprocess the class
path (static instrumentation).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple


class AgentBase:
    """Subclass and override the hooks you need."""

    #: Short identifier used in reports.
    name = "agent"

    def __init__(self):
        self.env = None  # set at attach time

    # -- lifecycle -------------------------------------------------------------

    def on_load(self, env) -> None:
        """``Agent_OnLoad``: request capabilities, set callbacks,
        enable events.  ``env`` is a
        :class:`~repro.jvmti.host.JVMTIAgentEnv`."""
        self.env = env

    def method_event_work(self, cost_model) -> Tuple[int, ...]:
        """The fixed AGENT work, in cycles and in charge order, that
        each of this agent's MethodEntry/MethodExit callbacks does
        before anything else.  The host charges it right after the
        event's dispatch cost, as one charge of the sum when no sampler
        is attached, so the callbacks do not charge it themselves.
        Default: none."""
        return ()

    # -- launch-time integration hooks (host side, zero simulated cost) -----------

    def native_libraries(self) -> List:
        """Native libraries the agent ships (loaded before launch)."""
        return []

    def runtime_classes(self) -> Optional[object]:
        """A :class:`~repro.classfile.archive.ClassArchive` of classes
        the agent injects on the bootclasspath (e.g. IPA's runtime
        class), or ``None``."""
        return None

    def instrument_archives(self, archives: List) -> List:
        """Static instrumentation: given the launch archives (boot +
        classpath, in order), return replacement archives.  Default:
        unchanged."""
        return archives

    # -- results ------------------------------------------------------------------

    def report(self) -> Dict:
        """Profiling results after VMDeath (free of simulated cost —
        the equivalent of reading the agent's printout)."""
        return {}
