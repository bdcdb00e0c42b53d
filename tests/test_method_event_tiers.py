"""Method-event agents in both execution tiers.

An agent holding the method entry/exit capabilities vetoes the JIT, so
nothing is compiled, but hot methods still run as templates: they
charge the interpreted costs and fire MethodEntry/MethodExit
themselves.  Every simulated observable must equal the dispatch loop's
— cycles, cycles by tag, instructions, PCL reads, the agent report,
per-event dispatch counts — and so must the charge sequence once
adjacent charges of one thread and tag are merged: an OSR entry or a
deopt splits one interpreter charge into two with the same sum and tag.

The recorder is a sampler, so the JVMTI host charges each method
event's dispatch cost and the agent's declared work one by one in
those runs.  Each case is repeated without a sampler, where the host
merges them into one charge (DESIGN.md §3), and must digest alike.
"""

import hashlib
import sys

import pytest

from repro.agents.counting import CountingAgent
from repro.agents.spa import SPA
from repro.bytecode.assembler import ClassAssembler
from repro.errors import StackOverflowSimError
from repro.harness.config import AgentSpec, RunConfig
from repro.harness.runner import execute
from repro.jit.policy import JitPolicy
from repro.jvm.machine import VMConfig
from repro.jvm.threads import SimThread
from repro.jvmti.agent import AgentBase
from repro.jvmti.capabilities import Capabilities
from repro.jvmti.events import JvmtiEvent
from repro.launcher import create_vm
from repro.workloads import get_workload

from helpers import build_app, expr_main, run_main

AGENTS = {
    "spa": AgentSpec.spa(),
    "callchain": AgentSpec.callchain(),
    "counting": AgentSpec("counting", CountingAgent),
    "offcpu": AgentSpec.offcpu(),
    "none": AgentSpec.none(),
}


class MergedChargeRecorder:
    """Digests the charge sequence with adjacent charges of one thread
    and tag merged, and reports the run's JVMTI dispatch counts and
    PCL reads."""

    def __init__(self):
        self._digest = hashlib.sha256()
        self._open = None  # [thread id, cycles, tag] not yet digested
        self.merged = 0
        #: ``thread.charge`` calls seen, before merging.
        self.calls = 0
        self._vm = None

    def install(self, vm) -> None:
        self._vm = vm
        vm.threads.samplers.append(self)

    def on_charge(self, thread, cycles: int, tag) -> int:
        self.calls += 1
        current = self._open
        if current is not None and current[0] == thread.thread_id \
                and current[2] is tag:
            current[1] += cycles
        else:
            self._close()
            self._open = [thread.thread_id, cycles, tag]
        return 0  # no sampling interrupt: the run is unperturbed

    def _close(self) -> None:
        if self._open is not None:
            tid, cycles, tag = self._open
            self._digest.update(f"{tid} {cycles} {tag.name}\n".encode())
            self.merged += 1
            self._open = None

    def report(self):
        self._close()
        return {"merged_charges": self.merged,
                "sha256": self._digest.hexdigest(),
                "dispatch_counts": dict(self._vm.jvmti.dispatch_counts),
                "pcl_reads": self._vm.pcl_reads}


class _ChargeSpy(MergedChargeRecorder):
    """The same digest without being a sampler, so the host takes its
    merged path and templates charge inline: every thread's
    ``cycles_by_tag`` is a :class:`_SpiedTags` that feeds it each
    charge, whether ``SimThread.charge`` or a template wrote it."""

    def install(self, vm) -> None:
        self._vm = vm


class _SpiedTags(dict):
    """A thread's ``cycles_by_tag`` that reports every write to
    ``spy.on_charge(thread, delta, tag)``: one per charge."""

    def __init__(self, tags, thread, spy):
        super().__init__(tags)
        self.thread = thread
        self.spy = spy

    def __setitem__(self, tag, value):
        self.spy.on_charge(self.thread, value - self[tag], tag)
        super().__setitem__(tag, value)


def _outcome(name, agent, tier, cores, recorder, **policy):
    result = execute(get_workload(name), RunConfig(
        agent=AGENTS[agent], sampler=lambda: recorder,
        vm_config=VMConfig(cores=cores, jit_policy=JitPolicy(
            template_tier=tier, **policy))))
    assert result.validation_ok and not result.thread_deaths
    return {
        "cycles": result.cycles,
        "ground_truth": result.ground_truth,
        "instructions": result.instructions,
        "agent_report": result.agent_report,
        "console": result.console,
        "charges": result.sampler_report,
        "jit_compiled": result.jit_compiled,
    }


CASES = [(name, agent, 1, {})
         for agent in ("spa", "callchain", "counting")
         for name in ("jack", "javac", "mtrt")]
CASES += [
    ("fj-kmeans", "spa", 2, {}),
    ("io-kv", "offcpu", 1, {}),
    ("compress", "none", 1, {"enabled": False}),
]


@pytest.mark.parametrize(
    "name, agent, cores, policy", CASES,
    ids=[f"{n}-{a}-c{c}{'-nojit' if p else ''}" for n, a, c, p in CASES])
def test_template_tier_matches_dispatch_loop(monkeypatch, name, agent,
                                             cores, policy):
    recorders = {tier: MergedChargeRecorder() for tier in (True, False)}
    outcomes = {tier: _outcome(name, agent, tier, cores, recorders[tier],
                               **policy)
                for tier in (True, False)}
    assert outcomes[True] == outcomes[False]
    assert outcomes[True]["jit_compiled"] == 0
    if agent == "none":
        return
    assert outcomes[True]["charges"]["dispatch_counts"]
    init = SimThread.__init__
    for tier in (True, False):
        spy = _ChargeSpy()

        def spied_init(thread, *args, **kwargs):
            init(thread, *args, **kwargs)
            thread.cycles_by_tag = _SpiedTags(thread.cycles_by_tag,
                                              thread, spy)

        with monkeypatch.context() as patch:
            patch.setattr(SimThread, "__init__", spied_init)
            merged = _outcome(name, agent, tier, cores, spy, **policy)
        assert merged == outcomes[tier]
        # fewer calls for the same digest: the merged path ran
        assert spy.calls < recorders[tier].calls


# -- deep recursion -----------------------------------------------------------


def _recursive_app():
    c = ClassAssembler("met.Rec")
    with c.method("down", "(I)I", static=True) as m:
        m.iload(0).iconst(1).iadd()
        m.invokestatic("met.Rec", "down", "(I)I").ireturn()

    def body(m):
        m.iconst(0).invokestatic("met.Rec", "down", "(I)I")

    return build_app(c, expr_main("met.RecM", body))


@pytest.fixture
def host_default_recursion_limit():
    """Start from the interpreter's default limit, as a fresh process
    would; an earlier VM in this process may have raised it."""
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        yield
    finally:
        sys.setrecursionlimit(saved)


@pytest.mark.usefixtures("host_default_recursion_limit")
@pytest.mark.parametrize("agent", ["spa", "nojit"])
def test_recursion_to_max_frames_overflows_alike(agent):
    outcomes = {}
    for tier in (True, False):
        policy = JitPolicy(template_tier=tier,
                           enabled=(agent != "nojit"))
        vm = create_vm(VMConfig(jit_policy=policy))
        agents = [SPA()] if agent == "spa" else []
        with pytest.raises(StackOverflowSimError):
            run_main(_recursive_app(), "met.RecM", vm=vm, agents=agents)
        thread = vm.threads.all_threads[0]
        outcomes[tier] = (thread.depth, vm.total_cycles,
                          vm.ground_truth(), vm.instructions_retired,
                          dict(vm.jvmti.dispatch_counts))
        if tier:
            # most of the chain ran as frameless templates
            assert thread.frameless > thread.depth // 2
    assert outcomes[True] == outcomes[False]
    assert outcomes[True][0] == vm.cost_model.max_frames


# -- listener lists -----------------------------------------------------------


class _SwappingAgent(AgentBase):
    """Enables MethodEntry, then replaces the callback."""

    name = "swapping"

    def __init__(self):
        super().__init__()
        self.calls = {"first": 0, "second": 0}

    def on_load(self, env) -> None:
        super().on_load(env)
        env.add_capabilities(Capabilities(
            can_generate_method_entry_events=True))
        env.set_event_callbacks({JvmtiEvent.METHOD_ENTRY: self._first})
        env.enable_event(JvmtiEvent.METHOD_ENTRY)
        env.set_event_callbacks({JvmtiEvent.METHOD_ENTRY: self._second})

    def _first(self, env, thread, method) -> None:
        self.calls["first"] += 1

    def _second(self, env, thread, method) -> None:
        self.calls["second"] += 1


def _loop_app():
    c = ClassAssembler("met.Loop")
    with c.method("twice", "(I)I", static=True) as m:
        m.iload(0).iconst(2).imul().ireturn()

    def body(m):
        m.iconst(0).istore(0)
        m.iconst(0).istore(1)
        m.label("t")
        m.iload(1).ldc(100).if_icmpge("e")
        m.iload(1).invokestatic("met.Loop", "twice", "(I)I")
        m.iload(0).iadd().istore(0)
        m.iinc(1, 1).goto("t")
        m.label("e")
        m.iload(0)

    return build_app(c, expr_main("met.LoopM", body))


class _RecordingAgent(AgentBase):
    """Records the VM state each method event sees."""

    name = "recording"

    def __init__(self, vm):
        super().__init__()
        self.vm = vm
        self.seen = []

    def on_load(self, env) -> None:
        super().on_load(env)
        env.add_capabilities(Capabilities(
            can_generate_method_entry_events=True,
            can_generate_method_exit_events=True))
        env.set_event_callbacks({
            JvmtiEvent.METHOD_ENTRY: self._entry,
            JvmtiEvent.METHOD_EXIT: self._exit,
        })
        env.enable_event(JvmtiEvent.METHOD_ENTRY)
        env.enable_event(JvmtiEvent.METHOD_EXIT)

    def _entry(self, env, thread, method) -> None:
        self.seen.append(("entry", method.qualified_name,
                          method.invocation_count,
                          self.vm.method_invocations, thread.depth,
                          thread.cycles_total))

    def _exit(self, env, thread, method, by_exception) -> None:
        self.seen.append(("exit", method.qualified_name, by_exception,
                          thread.depth, thread.cycles_total))


def test_method_events_see_the_same_vm_state_in_both_tiers():
    # a frameless call fires MethodEntry where _enter_bytecode_method
    # does: after the method's invocation count, which
    # vm.method_invocations sums, so the callback sees its own call
    # counted in both tiers
    seen = {}
    for tier in (True, False):
        vm = create_vm(VMConfig(jit_policy=JitPolicy(
            template_tier=tier, invoke_threshold=5,
            backedge_threshold=50)))
        agent = _RecordingAgent(vm)
        run_main(_loop_app(), "met.LoopM", vm=vm, agents=[agent])
        assert (vm.template_entries > 0) == tier
        seen[tier] = agent.seen
    assert seen[True] == seen[False]


class _RawChargeRecorder:
    def __init__(self, vm):
        self.charges = []
        vm.threads.samplers.append(self)

    def on_charge(self, thread, cycles: int, tag) -> int:
        self.charges.append((thread.thread_id, cycles, tag))
        return 0


def test_vetoed_hotness_moves_no_dispatch_loop_charge():
    # with nothing to compile there is no compile charge to flush
    # ahead of, so going hot must not split the loop's pending charge
    charges = []
    for threshold in (50, 10**9):
        vm = create_vm(VMConfig(jit_policy=JitPolicy(
            template_tier=False, invoke_threshold=threshold,
            backedge_threshold=threshold)))
        recorder = _RawChargeRecorder(vm)
        run_main(_loop_app(), "met.LoopM", vm=vm,
                 agents=[CountingAgent()])
        assert bool(vm.jit.hot_methods) == (threshold == 50)
        charges.append(recorder.charges)
    assert charges[0] == charges[1]


def test_replaced_callback_is_the_one_called():
    agent = _SwappingAgent()
    vm = run_main(_loop_app(), "met.LoopM", agents=[agent],
                  config=VMConfig(jit_policy=JitPolicy(
                      invoke_threshold=5, backedge_threshold=50)))
    assert vm.template_entries > 0
    assert agent.calls["first"] == 0
    assert agent.calls["second"] == \
        vm.method_invocations + vm.native_invocations
    assert vm.jvmti.dispatch_counts == {"METHOD_ENTRY":
                                        agent.calls["second"]}
