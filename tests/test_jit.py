"""JIT compilation model: thresholds, cost switching, the JVMTI veto."""

import pytest

from repro.bytecode.assembler import ClassAssembler
from repro.jit.policy import JitPolicy
from repro.jvm.machine import VMConfig

from helpers import build_app, expr_main, run_main


def _hot_program(calls: int):
    c = ClassAssembler("jit.Hot")
    with c.method("work", "(I)I", static=True) as m:
        m.iload(0).iconst(3).imul().iconst(1).iadd().ireturn()

    def body(m):
        m.iconst(0).istore(0)
        m.iconst(0).istore(1)
        m.label("t")
        m.iload(1).ldc(calls).if_icmpge("e")
        m.iload(0).invokestatic("jit.Hot", "work", "(I)I").istore(0)
        m.iinc(1, 1).goto("t")
        m.label("e")
        m.iload(0)

    return build_app(c, expr_main("jit.Main", body))


def _run(calls, policy=None):
    config = VMConfig(jit_policy=policy or JitPolicy())
    return run_main(_hot_program(calls), "jit.Main", config=config)


class TestCompilationDecisions:
    def test_hot_method_compiles(self):
        vm = _run(500)
        compiled = {m.qualified_name for m in vm.jit.methods_compiled}
        assert "jit.Hot.work(I)I" in compiled

    def test_cold_method_stays_interpreted(self):
        vm = _run(5)
        compiled = {m.qualified_name for m in vm.jit.methods_compiled}
        assert "jit.Hot.work(I)I" not in compiled

    def test_invoke_threshold_respected(self):
        policy = JitPolicy(invoke_threshold=1000,
                           backedge_threshold=10**9)
        vm = _run(500, policy)
        compiled = {m.qualified_name for m in vm.jit.methods_compiled}
        assert "jit.Hot.work(I)I" not in compiled

    def test_backedge_compilation_osr(self):
        # a method entered once with a long loop must still compile
        c = ClassAssembler("jit.Loop")
        with c.method("spin", "()I", static=True) as m:
            m.iconst(0).istore(0)
            m.label("t")
            m.iload(0).ldc(5000).if_icmpge("e")
            m.iinc(0, 1).goto("t")
            m.label("e")
            m.iload(0).ireturn()

        def body(m):
            m.invokestatic("jit.Loop", "spin", "()I")

        vm = run_main(build_app(c, expr_main("jit.Main2", body)),
                      "jit.Main2")
        compiled = {m.qualified_name for m in vm.jit.methods_compiled}
        assert "jit.Loop.spin()I" in compiled

    def test_disabled_policy_never_compiles(self):
        vm = _run(500, JitPolicy(enabled=False))
        assert vm.jit.compile_count == 0

    def test_compilation_charges_vm_cycles(self):
        fast = _run(500)
        assert fast.ground_truth()["vm"] > _run(5).ground_truth()["vm"]


class TestPerformanceEffect:
    def test_jit_speeds_up_hot_code(self):
        # long enough that steady state dominates warm-up and loading
        with_jit = _run(20000).total_cycles
        without = _run(20000, JitPolicy(enabled=False)).total_cycles
        assert without > with_jit * 3

    def test_compiled_costs_cheaper_per_instruction(self):
        vm = _run(500)
        method = vm.loader.loaded_class("jit.Hot").find_declared(
            "work", "(I)I")
        assert method.compiled
        assert sum(method.active_costs) < sum(method.interp_cost_list)
        assert method.active_costs == method.compiled_cost_list


class TestJvmtiVeto:
    def test_method_event_capability_disables_jit(self):
        from repro.agents.spa import SPA

        vm = run_main(_hot_program(500), "jit.Main",
                      agents=[SPA()])
        assert vm.jit.vetoed
        assert vm.jit.compile_count == 0

    def test_ipa_does_not_veto(self):
        from repro.agents.ipa import IPA

        # IPA instruments archives at attach time via the harness; here
        # we only check the veto flag, so skip instrumentation
        vm = run_main(_hot_program(500), "jit.Main",
                      agents=[IPA(instrumentation="none")])
        assert not vm.jit.vetoed
        assert vm.jit.compile_count > 0

    def test_veto_overrides_enabled_policy(self):
        from repro.agents.counting import CountingAgent

        vm = run_main(_hot_program(500), "jit.Main",
                      agents=[CountingAgent()])
        assert vm.jit.vetoed
        assert vm.jit.compile_count == 0

    @pytest.mark.parametrize("veto", [True, False])
    def test_method_hot_without_jit_is_never_compiled(self, veto):
        # a method that went hot with the JIT off was translated with
        # its interpreted costs; compiling it later would leave the
        # template charging stale costs, so it must never happen
        from repro.agents.counting import CountingAgent

        if veto:
            vm = run_main(_hot_program(500), "jit.Main",
                          agents=[CountingAgent()])
        else:
            vm = _run(500, JitPolicy(enabled=False))
        method = vm.loader.loaded_class("jit.Hot").find_declared(
            "work", "(I)I")
        assert method.hot and method.template is not None
        translated = vm.jit.templates_translated
        vm.jit.compile(vm.threads.all_threads[0], method)
        assert not method.compiled
        assert method.active_costs is method.interp_cost_list
        assert vm.jit.compile_count == 0
        # a method goes hot once: no second entry, no retranslation
        assert vm.jit.hot_methods.count(method) == 1
        assert vm.jit.templates_translated == translated


class TestPolicyCopy:
    def test_copy_is_equal_and_independent(self):
        policy = JitPolicy(invoke_threshold=7, osr=False, pic_depth=2,
                          template_code_limit=300,
                          template_deopt_disable_threshold=9)
        dup = policy.copy()
        assert dup == policy
        assert dup is not policy
        dup.invoke_threshold = 99
        assert policy.invoke_threshold == 7

    def test_copy_cannot_drop_fields(self):
        # copy() goes through dataclasses.replace, which carries every
        # declared field by name — a field added to JitPolicy can never
        # be silently dropped by a hand-written copy again.  Guard the
        # invariant by checking a non-default value of *every* field
        # survives the round trip.
        import dataclasses

        overrides = {}
        for field in dataclasses.fields(JitPolicy):
            if field.type == "bool" or isinstance(field.default, bool):
                overrides[field.name] = not field.default
            else:
                overrides[field.name] = field.default + 13
        policy = JitPolicy(**overrides)
        dup = policy.copy()
        for name, value in overrides.items():
            assert getattr(dup, name) == value, name
