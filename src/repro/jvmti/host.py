"""The JVMTI host: event dispatch, capabilities, and per-agent
environments.

The host lives inside the VM; agents see only their
:class:`JVMTIAgentEnv`.  Event delivery charges the cost model's
dispatch cost to the current thread (tagged AGENT — profiling-induced
perturbation), and agent callbacks charge their own work on top through
:meth:`JVMTIAgentEnv.charge`.  MethodEntry/MethodExit are the
exception: the fixed work an agent's method callbacks do first
(:meth:`~repro.jvmti.agent.AgentBase.method_event_work`) is charged by
the host with the dispatch cost, as one charge of the sum when no
sampler is attached (DESIGN.md §3, "Host-performance engineering").

JVMTI version modelling: the host is constructed for version 1.0 or 1.1;
``can_set_native_method_prefix`` and ``SetNativeMethodPrefix`` are
rejected under 1.0 — SPA runs fine on 1.0 (and could run on the old
JVMPI, as the paper notes), IPA needs 1.1.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import JVMTIError
from repro.jvm.costmodel import ChargeTag
from repro.jvmti.capabilities import Capabilities
from repro.jvmti.events import JvmtiEvent
from repro.jvmti.raw_monitor import RawMonitor
from repro.jvmti.tls import ThreadLocalStorage

JVMTI_VERSION_1_0 = (1, 0)
JVMTI_VERSION_1_1 = (1, 1)

#: ``dispatch_counts`` keys, looked up once instead of through the
#: Enum ``name`` property on every delivery.
_EVENT_NAMES = {event: event.name for event in JvmtiEvent}


class JVMTIAgentEnv:
    """One agent's view of the tool interface."""

    def __init__(self, host: "JVMTIHost", agent):
        self._host = host
        self.agent = agent
        self.capabilities = Capabilities()
        self.callbacks: Dict[JvmtiEvent, Callable] = {}
        self.enabled_events: set = set()
        self.tls = ThreadLocalStorage()
        self._monitors: List[RawMonitor] = []

    # -- capabilities ------------------------------------------------------------

    def add_capabilities(self, caps: Capabilities) -> None:
        """``AddCapabilities``.  Requesting method-entry/exit event
        capabilities vetoes JIT compilation for the whole run."""
        if caps.can_set_native_method_prefix and \
                self._host.version < JVMTI_VERSION_1_1:
            raise JVMTIError(
                "can_set_native_method_prefix requires JVMTI 1.1")
        self.capabilities = self.capabilities.merged_with(caps)
        if caps.disables_jit:
            self._host.vm.jit.veto()

    # -- events ---------------------------------------------------------------------

    def set_event_callbacks(self,
                            callbacks: Dict[JvmtiEvent, Callable]) -> None:
        """``SetEventCallbacks``.  Callback signatures:

        * VM_INIT/VM_DEATH: ``fn(env)``
        * THREAD_START/THREAD_END: ``fn(env, thread)``
        * METHOD_ENTRY: ``fn(env, thread, method)``
        * METHOD_EXIT: ``fn(env, thread, method, by_exception)``
        * CLASS_FILE_LOAD_HOOK: ``fn(env, name, data) -> bytes | None``
        """
        self.callbacks.update(callbacks)
        self._host.refresh_event_flags()

    def enable_event(self, event: JvmtiEvent) -> None:
        """``SetEventNotificationMode(ENABLE, ...)``."""
        if event in (JvmtiEvent.METHOD_ENTRY,) and \
                not self.capabilities.can_generate_method_entry_events:
            raise JVMTIError(
                "METHOD_ENTRY requires can_generate_method_entry_events")
        if event in (JvmtiEvent.METHOD_EXIT,) and \
                not self.capabilities.can_generate_method_exit_events:
            raise JVMTIError(
                "METHOD_EXIT requires can_generate_method_exit_events")
        if event is JvmtiEvent.CLASS_FILE_LOAD_HOOK and \
                not self.capabilities.can_generate_all_class_hook_events:
            raise JVMTIError(
                "CLASS_FILE_LOAD_HOOK requires "
                "can_generate_all_class_hook_events")
        if event not in self.callbacks:
            raise JVMTIError(f"no callback registered for {event}")
        self.enabled_events.add(event)
        self._host.refresh_event_flags()

    def disable_event(self, event: JvmtiEvent) -> None:
        self.enabled_events.discard(event)
        self._host.refresh_event_flags()

    # -- thread-local storage --------------------------------------------------------

    def tls_get(self, thread=None):
        """``GetThreadLocalStorage`` (``None`` = current thread)."""
        thread = self._resolve_thread(thread)
        thread.charge(self._host.vm.cost_model.jvmti_tls_access,
                      ChargeTag.AGENT)
        return self.tls.get(thread)

    def tls_put(self, thread, value) -> None:
        """``SetThreadLocalStorage`` (``None`` = current thread)."""
        thread = self._resolve_thread(thread)
        thread.charge(self._host.vm.cost_model.jvmti_tls_access,
                      ChargeTag.AGENT)
        self.tls.put(thread, value)

    def _resolve_thread(self, thread):
        if thread is None:
            thread = self._host.vm.threads.current
            if thread is None:
                raise JVMTIError("no current thread")
        return thread

    # -- raw monitors --------------------------------------------------------------------

    def create_raw_monitor(self, name: str) -> RawMonitor:
        monitor = RawMonitor(name)
        self._monitors.append(monitor)
        return monitor

    def raw_monitor_enter(self, monitor: RawMonitor) -> None:
        thread = self._resolve_thread(None)
        thread.charge(self._host.vm.cost_model.raw_monitor,
                      ChargeTag.AGENT)
        monitor.enter(thread)

    def raw_monitor_exit(self, monitor: RawMonitor) -> None:
        thread = self._resolve_thread(None)
        monitor.exit(thread)

    # -- JNI function interception ----------------------------------------------------------

    def get_jni_function_table(self) -> Dict[str, Callable]:
        """``GetJNIFunctionTable``: a snapshot the agent may modify."""
        return self._host.vm.jni_table.snapshot()

    def set_jni_function_table(self,
                               table: Dict[str, Callable]) -> None:
        """``SetJNIFunctionTable``."""
        self._host.vm.jni_table.install(table)

    # -- native method prefixing ---------------------------------------------------------------

    def set_native_method_prefix(self, prefix: str) -> None:
        """``SetNativeMethodPrefix`` (JVMTI 1.1)."""
        if not self.capabilities.can_set_native_method_prefix:
            raise JVMTIError(
                "SetNativeMethodPrefix requires "
                "can_set_native_method_prefix")
        self._host.native_method_prefixes.append(prefix)

    # -- accounting ----------------------------------------------------------------------------------

    def charge(self, cycles: int, thread=None) -> None:
        """Charge agent work to a thread (default: current)."""
        self._resolve_thread(thread).charge(cycles, ChargeTag.AGENT)

    # -- host-library access -------------------------------------------------------------------------

    @property
    def pcl(self):
        """The PCL cycle-counter library (agents link it directly, as
        the paper's C agents linked the real PCL)."""
        return self._host.vm.pcl

    @property
    def observer(self):
        """The VM's observability sink (a no-op null sink unless the
        harness installed a live one).  Agents may record trace events
        and metrics through it; recording is free of simulated cost by
        construction — it never touches thread cycle counters."""
        return self._host.vm.obs

    @property
    def cost_model(self):
        """Read-only access to machine timing constants — the stand-in
        for the offline micro-calibration the paper used to estimate
        average wrapper cost for timestamp compensation."""
        return self._host.vm.cost_model


class JVMTIHost:
    """Event router and agent registry of one VM."""

    def __init__(self, vm, version=JVMTI_VERSION_1_1):
        self.vm = vm
        self.version = version
        self.agent_envs: List[JVMTIAgentEnv] = []
        self.native_method_prefixes: List[str] = []
        # precomputed fast-path flags (both tiers check these on every
        # method entry/exit)
        self.method_entry_enabled = False
        self.method_exit_enabled = False
        self._class_hook_enabled = False
        # (env, callback, charges, total) per listener of each method
        # event, in agent_envs order: ``charges`` is the dispatch cost
        # followed by the agent's declared method_event_work, ``total``
        # their sum.  Rebuilt whenever an env changes its enabled
        # events or callbacks.
        self._entry_listeners: List[Tuple[
            JVMTIAgentEnv, Callable, Tuple[int, ...], int]] = []
        self._exit_listeners: List[Tuple[
            JVMTIAgentEnv, Callable, Tuple[int, ...], int]] = []
        #: Host-side per-event-type delivery counts (observability
        #: metrics source; maintaining them charges no simulated time).
        self.dispatch_counts: Dict[str, int] = {}

    @property
    def events_dispatched(self) -> int:
        """Deliveries of every event type to every listening agent."""
        return sum(self.dispatch_counts.values())

    def attach(self, agent) -> JVMTIAgentEnv:
        env = JVMTIAgentEnv(self, agent)
        self.agent_envs.append(env)
        return env

    def refresh_event_flags(self) -> None:
        cost_model = self.vm.cost_model

        def listeners(event):
            return [(env, env.callbacks[event]) for env in self.agent_envs
                    if event in env.enabled_events]

        def method_listeners(event):
            result = []
            for env, callback in listeners(event):
                charges = (cost_model.jvmti_event_dispatch,) + \
                    env.agent.method_event_work(cost_model)
                result.append((env, callback, charges, sum(charges)))
            return result

        self._entry_listeners = method_listeners(JvmtiEvent.METHOD_ENTRY)
        self._exit_listeners = method_listeners(JvmtiEvent.METHOD_EXIT)
        self.method_entry_enabled = bool(self._entry_listeners)
        self.method_exit_enabled = bool(self._exit_listeners)
        self._class_hook_enabled = bool(
            listeners(JvmtiEvent.CLASS_FILE_LOAD_HOOK))

    # -- dispatch -------------------------------------------------------------

    def _deliver(self, event: JvmtiEvent, thread, *args):
        dispatch_cost = self.vm.cost_model.jvmti_event_dispatch
        counts = self.dispatch_counts
        name = _EVENT_NAMES[event]
        for env in self.agent_envs:
            if event in env.enabled_events:
                if thread is not None:
                    thread.charge(dispatch_cost, ChargeTag.AGENT)
                counts[name] = counts.get(name, 0) + 1
                env.callbacks[event](env, *args)

    def dispatch_vm_init(self) -> None:
        self._deliver(JvmtiEvent.VM_INIT, self.vm.threads.current)

    def dispatch_vm_death(self) -> None:
        self._deliver(JvmtiEvent.VM_DEATH, self.vm.threads.current)

    def dispatch_thread_start(self, thread) -> None:
        self._deliver(JvmtiEvent.THREAD_START, thread, thread)

    def dispatch_thread_end(self, thread) -> None:
        self._deliver(JvmtiEvent.THREAD_END, thread, thread)

    # The two method events are the hot ones (one per call and return
    # under SPA); they walk the prebuilt listener lists instead of
    # testing every env in _deliver.  Each delivery starts with the
    # dispatch cost and the listener's declared work, all AGENT and
    # adjacent: charged one by one when a sampler could see the lump
    # sizes, otherwise as one charge of their sum.  Merging stops at
    # the listener, whose callback may read PCL before the next
    # listener's dispatch.

    def dispatch_method_entry(self, thread, method) -> None:
        split = self.vm.threads.samplers
        counts = self.dispatch_counts
        for env, callback, charges, total in self._entry_listeners:
            if split:
                for cycles in charges:
                    thread.charge(cycles, ChargeTag.AGENT)
            else:
                thread.charge(total, ChargeTag.AGENT)
            counts["METHOD_ENTRY"] = counts.get("METHOD_ENTRY", 0) + 1
            callback(env, thread, method)

    def dispatch_method_exit(self, thread, method,
                             by_exception: bool) -> None:
        split = self.vm.threads.samplers
        counts = self.dispatch_counts
        for env, callback, charges, total in self._exit_listeners:
            if split:
                for cycles in charges:
                    thread.charge(cycles, ChargeTag.AGENT)
            else:
                thread.charge(total, ChargeTag.AGENT)
            counts["METHOD_EXIT"] = counts.get("METHOD_EXIT", 0) + 1
            callback(env, thread, method, by_exception)

    def dispatch_class_file_load_hook(self, name: str,
                                      data: bytes) -> Optional[bytes]:
        """Offer class bytes to agents; returns transformed bytes or
        ``None`` if unchanged.  Agents chain: each sees the previous
        agent's output."""
        if not self._class_hook_enabled:
            return None
        current = data
        changed = False
        thread = self.vm.threads.current
        dispatch_cost = self.vm.cost_model.jvmti_event_dispatch
        for env in self.agent_envs:
            if JvmtiEvent.CLASS_FILE_LOAD_HOOK in env.enabled_events:
                if thread is not None:
                    thread.charge(dispatch_cost, ChargeTag.AGENT)
                event_name = _EVENT_NAMES[JvmtiEvent.CLASS_FILE_LOAD_HOOK]
                self.dispatch_counts[event_name] = \
                    self.dispatch_counts.get(event_name, 0) + 1
                result = env.callbacks[JvmtiEvent.CLASS_FILE_LOAD_HOOK](
                    env, name, current)
                if result is not None:
                    current = result
                    changed = True
        return current if changed else None
