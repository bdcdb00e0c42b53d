"""The profiling agents: SPA, IPA, the counting baseline, and the
call-chain extension — accuracy against simulator ground truth."""

import pytest

from repro.agents.callchain import CallChainAgent
from repro.agents.counting import CountingAgent
from repro.agents.ipa import IPA
from repro.agents.offcpu import OffCpuAgent
from repro.agents.spa import SPA
from repro.bytecode.assembler import ClassAssembler
from repro.classfile.archive import ClassArchive
from repro.harness.config import AgentSpec, RunConfig
from repro.harness.runner import execute
from repro.workloads.base import Workload, WorkloadResultCheck

from helpers import build_app, run_main


class MixedWorkload(Workload):
    """A small workload with a known bytecode/native mix: a hot loop
    plus a native string hash every 16 iterations."""

    name = "mixed"
    main_class = "mix.Main"

    def __init__(self, scale: int = 1, iterations: int = 6000):
        super().__init__(scale)
        self.iterations = iterations

    def build_classes(self) -> ClassArchive:
        c = ClassAssembler("mix.Main")
        with c.method("step", "(I)I", static=True) as m:
            m.iload(0).iconst(5).imul().iconst(3).iadd()
            m.ldc(65521).irem().ireturn()
        with c.method("main", "()V", static=True) as m:
            m.iconst(1).istore(0)
            m.iconst(0).istore(1)
            m.label("t")
            m.iload(1).ldc(self.iterations).if_icmpge("e")
            m.iload(0).invokestatic("mix.Main", "step", "(I)I")
            m.istore(0)
            m.iload(1).iconst(15).iand().ifne("skip")
            m.ldc("a moderately long string constant for hashing")
            m.invokevirtual("java.lang.String", "hashCode", "()I")
            m.pop()
            m.label("skip")
            m.iinc(1, 1).goto("t")
            m.label("e")
            m.getstatic("java.lang.System", "out").iload(0)
            m.invokevirtual("java.io.PrintStream", "println", "(I)V")
            m.return_()
        archive = ClassArchive()
        archive.put_class(c.build())
        return archive

    def validate(self, vm) -> WorkloadResultCheck:
        return WorkloadResultCheck(bool(vm.console),
                                   "no output" if not vm.console
                                   else "")


@pytest.fixture(scope="module")
def runs():
    """Baseline, SPA and IPA runs over the same workload."""
    workload = MixedWorkload()
    return {
        "base": execute(workload, RunConfig(agent=AgentSpec.none())),
        "spa": execute(workload, RunConfig(agent=AgentSpec.spa())),
        "ipa": execute(workload, RunConfig(agent=AgentSpec.ipa())),
        "workload": workload,
    }


class TestSPA:
    def test_reports_both_buckets(self, runs):
        report = runs["spa"].agent_report
        assert report["total_time_bytecode"] > 0
        assert report["total_time_native"] > 0
        assert report["vm_death_seen"]

    def test_counts_invocations(self, runs):
        report = runs["spa"].agent_report
        # step() called `iterations` times plus runtime methods
        assert report["java_method_invocations"] > 6000
        # one native hash per 16 iterations
        assert report["native_method_invocations"] >= 370

    def test_overhead_is_catastrophic(self, runs):
        ratio = runs["spa"].cycles / runs["base"].cycles
        assert ratio > 15  # >1500%, the paper's floor

    def test_jit_disabled(self, runs):
        assert runs["spa"].jit_vetoed
        assert runs["spa"].jit_compiled == 0

    def test_measurement_is_perturbed(self, runs):
        # SPA's own interference (no JIT) skews the reported split —
        # the paper's point about measurement perturbation
        truth = runs["base"].ground_truth_native_fraction * 100
        measured = runs["spa"].agent_report["percent_native"]
        assert abs(measured - truth) > 0.5


class TestIPA:
    def test_overhead_is_moderate(self, runs):
        ratio = runs["ipa"].cycles / runs["base"].cycles
        assert ratio < 1.35  # < 35 %

    def test_gap_between_agents_is_orders_of_magnitude(self, runs):
        spa_overhead = runs["spa"].cycles / runs["base"].cycles - 1
        ipa_overhead = runs["ipa"].cycles / runs["base"].cycles - 1
        assert spa_overhead / max(ipa_overhead, 1e-9) > 50

    def test_jit_stays_enabled(self, runs):
        assert not runs["ipa"].jit_vetoed
        assert runs["ipa"].jit_compiled > 0

    def test_recovers_ground_truth_native_percent(self, runs):
        truth = runs["base"].ground_truth_native_fraction * 100
        measured = runs["ipa"].agent_report["percent_native"]
        assert measured == pytest.approx(truth, abs=1.5)

    def test_counts_j2n_transitions(self, runs):
        report = runs["ipa"].agent_report
        # ~ one native hash per 16 iterations (plus println etc.)
        assert 370 <= report["native_method_calls"] <= 600

    def test_counts_n2j_transitions(self, runs):
        # the launcher's CallStaticVoidMethod at minimum
        assert runs["ipa"].agent_report["jni_calls"] >= 1

    def test_compensation_improves_accuracy(self):
        workload = MixedWorkload()
        base = execute(workload, RunConfig(agent=AgentSpec.none()))
        truth = base.ground_truth_native_fraction * 100
        with_comp = execute(workload, RunConfig(
            agent=AgentSpec.ipa(compensate=True)))
        without = execute(workload, RunConfig(
            agent=AgentSpec.ipa(compensate=False)))
        err_with = abs(
            with_comp.agent_report["percent_native"] - truth)
        err_without = abs(
            without.agent_report["percent_native"] - truth)
        assert err_with < err_without

    def test_instrumentation_stats_reported(self, runs):
        assert runs["ipa"].agent_report["methods_wrapped"] > 30

    def test_dynamic_instrumentation_costs_more(self):
        workload = MixedWorkload()
        static = execute(workload, RunConfig(
            agent=AgentSpec.ipa(instrumentation="static")))
        dynamic = execute(workload, RunConfig(
            agent=AgentSpec.ipa(instrumentation="dynamic")))
        assert dynamic.cycles > static.cycles
        # both count the same J2N transitions
        assert dynamic.agent_report["native_method_calls"] == \
            static.agent_report["native_method_calls"]

    def test_results_are_deterministic(self):
        workload = MixedWorkload()
        a = execute(workload, RunConfig(agent=AgentSpec.ipa()))
        b = execute(workload, RunConfig(agent=AgentSpec.ipa()))
        assert a.cycles == b.cycles
        assert a.agent_report == b.agent_report


class TestCountingBaseline:
    def test_counts_match_spa(self, runs):
        workload = runs["workload"]
        counting = CountingAgent()
        result = execute(workload, RunConfig(agent=AgentSpec(
            "counting", lambda: counting)))
        spa_report = runs["spa"].agent_report
        report = result.agent_report
        assert report["native_method_invocations"] == \
            spa_report["native_method_invocations"]

    def test_no_timing_information(self, runs):
        counting = CountingAgent()
        workload = runs["workload"]
        result = execute(workload, RunConfig(agent=AgentSpec(
            "counting", lambda: counting)))
        assert "percent_native" not in result.agent_report

    def test_disables_jit_like_interpreted_kaffe(self, runs):
        workload = runs["workload"]
        result = execute(workload, RunConfig(agent=AgentSpec(
            "counting", CountingAgent)))
        assert result.jit_vetoed


class TestCallChainExtension:
    def test_builds_mixed_chains(self, runs):
        workload = runs["workload"]
        agent = CallChainAgent()
        execute(workload, RunConfig(agent=AgentSpec(
            "callchain", lambda: agent)))
        chains = agent.mixed_chains()
        assert chains, "no mixed Java/native chains found"
        # the native hashCode must appear at the end of a chain that
        # started in main
        flat = [" > ".join(chain) for chain, _, _ in chains]
        assert any("hashCode" in text for text in flat)
        assert any("mix.Main.main()V" in text for text in flat)

    def test_chain_counts_and_cycles(self, runs):
        workload = runs["workload"]
        agent = CallChainAgent()
        execute(workload, RunConfig(agent=AgentSpec(
            "cc", lambda: agent)))
        for chain, calls, cycles in agent.mixed_chains():
            assert calls > 0
            assert cycles >= 0

    def test_report_shape(self, runs):
        workload = runs["workload"]
        agent = CallChainAgent()
        execute(workload, RunConfig(agent=AgentSpec(
            "cc", lambda: agent)))
        report = agent.report()
        assert report["threads"] >= 1
        assert report["hottest_mixed_chains"]

    def test_deepest_chain(self, runs):
        workload = runs["workload"]
        agent = CallChainAgent()
        execute(workload, RunConfig(agent=AgentSpec(
            "cc", lambda: agent)))
        deepest = agent.deepest_chain()
        assert deepest is not None and len(deepest) >= 2


def _shared_name_app() -> ClassArchive:
    """Two worker threads, both named ``worker``, each calling
    ``t.W.work`` once."""
    w = ClassAssembler("t.W", super_name="java.lang.Thread")
    with w.method("<init>", "()V") as m:
        m.return_()
    with w.method("work", "()V", static=True) as m:
        m.return_()
    with w.method("run", "()V") as m:
        m.invokestatic("t.W", "work", "()V")
        m.return_()
    c = ClassAssembler("t.Main")
    with c.method("main", "()V", static=True) as m:
        for slot in (0, 1):
            m.new("t.W").dup()
            m.invokespecial("t.W", "<init>", "()V").astore(slot)
            m.aload(slot).ldc("worker")
            m.invokevirtual("t.W", "setName", "(Ljava.lang.String;)V")
            m.aload(slot).invokevirtual("t.W", "start", "()V")
        for slot in (0, 1):
            m.aload(slot).invokevirtual("t.W", "join", "()V")
        m.return_()
    return build_app(w, c)


class TestThreadsSharingAName:
    """The CCT agents keep one tree per simulated thread, labelled with
    the thread's name, even when two threads share that name."""

    @pytest.mark.parametrize("agent_class", [CallChainAgent, OffCpuAgent])
    def test_every_thread_keeps_its_tree(self, agent_class):
        from repro.observability.flamegraph import folded_lines

        agent = agent_class()
        vm = run_main(_shared_name_app(), "t.Main", agents=[agent])
        assert len(vm.threads.all_threads) == 3
        assert agent.report()["threads"] == 3
        assert sorted(name for name, _ in agent.roots) == \
            ["main", "worker", "worker"]
        work_calls = [node.calls for _, root in agent.roots
                      for chain, node in root.walk()
                      if chain[-1] == "t.W.work()V"]
        assert work_calls == [1, 1]
        # the folded stacks carry every thread's weight; the two
        # workers' identical stacks are summed into one line each
        lines = folded_lines(agent.roots)
        assert sum(int(line.rsplit(" ", 1)[1]) for line in lines) == \
            sum(child.inclusive_cycles for _, root in agent.roots
                for child in root.children.values())
        workers = [line for line in lines if line.startswith("worker;")]
        assert len(workers) == len(set(line.rsplit(" ", 1)[0]
                                       for line in workers))


class TestThreadEndFoldIsIdempotent:
    """THREAD_END folds the thread's accumulated times into the global
    totals.  The fold must also reset the TLS context: a duplicate
    THREAD_END (or any later fold) may only contribute the cycles that
    elapsed *since* the first fold, never re-add the whole run."""

    def _run_and_refire(self, agent):
        from repro.launcher import create_vm

        workload = MixedWorkload(iterations=800)
        vm = create_vm()
        vm.attach_agent(agent)
        vm.loader.add_classpath_archive(workload.archive)
        vm.launch(workload.main_class)
        folded = agent.total_time_bytecode + agent.total_time_native
        assert folded > 0
        # a buggy event source delivers THREAD_END twice while the
        # thread is still current
        thread = vm.threads.all_threads[0]
        vm.threads.current = thread
        vm.jvmti.dispatch_thread_end(thread)
        refolded = agent.total_time_bytecode + agent.total_time_native
        return folded, refolded

    def test_spa_duplicate_thread_end_does_not_double_count(self):
        folded, refolded = self._run_and_refire(SPA())
        # only the sliver between the two events (event work, PCL
        # reads) may be added — a re-fold of the run would re-add
        # hundreds of thousands of cycles
        assert refolded - folded < folded * 0.01

    def test_ipa_duplicate_thread_end_does_not_double_count(self):
        folded, refolded = self._run_and_refire(
            IPA(instrumentation="none"))
        assert refolded - folded < folded * 0.01
