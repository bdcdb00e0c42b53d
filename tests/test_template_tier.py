"""Template tier (second execution tier): parity, deopt, metrics.

The tier's contract is absolute: every simulated observable — console
output, total cycles, per-tag ground truth, instructions retired,
inline-cache statistics, method-invocation counts — is bit-identical
with the tier on or off.  Only host throughput may differ.  These tests
pin the contract on targeted programs (hot loops, call chains,
exceptions, deopt paths, native re-entry); ``test_template_fuzz.py``
pins it on randomized bytecode.
"""

from pathlib import Path

import pytest

from repro.bytecode.assembler import ClassAssembler
from repro.bytecode.opcodes import Op
from repro.jit.policy import JitPolicy
from repro.jit.template import translate
from repro.jni.library import NativeLibrary
from repro.jvm.machine import VMConfig
from repro.launcher import create_vm

from helpers import build_app, expr_main, run_main

RESULTS = Path(__file__).resolve().parent.parent / "results"

#: Low threshold so tiny test programs reach the template quickly.
HOT = dict(invoke_threshold=5, backedge_threshold=50)


def _run_tiered(archive, main_class, tier: bool, files=None,
                libraries=(), **policy_kwargs):
    kwargs = dict(HOT)
    kwargs.update(policy_kwargs)
    config = VMConfig(jit_policy=JitPolicy(template_tier=tier,
                                           **kwargs))
    vm = create_vm(config)
    for library in libraries:
        vm.native_registry.register(library, preload=True)
    return run_main(archive, main_class, vm=vm, files=files)


def _observables(vm):
    return {
        "console": list(vm.console),
        "total_cycles": vm.total_cycles,
        "ground_truth": vm.ground_truth(),
        "instructions_retired": vm.instructions_retired,
        "ic_hits": vm.ic_hits,
        "ic_misses": vm.ic_misses,
        "pic_hits": vm.pic_hits,
        "pic_megamorphic": vm.pic_megamorphic,
        "pic_mono_to_poly": vm.pic_mono_to_poly,
        "pic_poly_to_mega": vm.pic_poly_to_mega,
        "method_invocations": vm.method_invocations,
        "native_invocations": vm.native_invocations,
    }


def _assert_parity(build, main_class, files=None, library_factory=None,
                   **policy_kwargs):
    """Run the program under both tiers; all observables must match.

    ``build``/``library_factory`` are callables so each tier gets fresh
    assembler/library objects (quickening mutates instruction state).
    Returns the template-tier VM for tier-specific assertions.
    """
    libs = (library_factory(),) if library_factory else ()
    templated = _run_tiered(build(), main_class, True, files=files,
                            libraries=libs, **policy_kwargs)
    libs = (library_factory(),) if library_factory else ()
    interp = _run_tiered(build(), main_class, False, files=files,
                         libraries=libs, **policy_kwargs)
    assert _observables(templated) == _observables(interp)
    assert interp.jit.template_entries == 0
    assert len(interp.jit.code_cache) == 0
    return templated


def _hot_loop_app(calls=200):
    def build():
        c = ClassAssembler("tt.Hot")
        with c.method("work", "(I)I", static=True) as m:
            m.iload(0).iconst(3).imul().iconst(1).iadd().ireturn()

        def body(m):
            m.iconst(0).istore(0)
            m.iconst(0).istore(1)
            m.label("t")
            m.iload(1).ldc(calls).if_icmpge("e")
            m.iload(0).invokestatic("tt.Hot", "work", "(I)I").istore(0)
            m.iinc(1, 1).goto("t")
            m.label("e")
            m.iload(0)

        return build_app(c, expr_main("tt.Main", body))

    return build


class TestTranslation:
    def test_hot_method_gets_template(self):
        vm = _run_tiered(_hot_loop_app()(), "tt.Main", True)
        method = vm.loader.loaded_class("tt.Hot").find_declared(
            "work", "(I)I")
        assert method.compiled
        assert method.template is not None
        assert vm.jit.templates_translated >= 1
        assert vm.jit.template_entries > 0

    def test_tier_off_translates_nothing(self):
        vm = _run_tiered(_hot_loop_app()(), "tt.Main", False)
        method = vm.loader.loaded_class("tt.Hot").find_declared(
            "work", "(I)I")
        assert method.compiled  # the cost-array JIT still fires
        assert method.template is None
        assert vm.jit.templates_translated == 0
        assert vm.jit.template_entries == 0

    def test_code_cache_keeps_source(self):
        vm = _run_tiered(_hot_loop_app()(), "tt.Main", True)
        method = vm.loader.loaded_class("tt.Hot").find_declared(
            "work", "(I)I")
        source = vm.jit.code_cache.source_for(method)
        assert source is not None
        assert ("def template(interp, thread, frame, osr_pc=-1, l=None):"
                in source)


class TestParity:
    def test_hot_loop(self):
        vm = _assert_parity(_hot_loop_app(2000), "tt.Main")
        assert vm.jit.template_entries > 1000

    def test_invoke_chain(self):
        # f -> g -> h all hot: templates re-enter the interpreter for
        # nested calls, which may themselves run templates
        def build():
            c = ClassAssembler("tt.Chain")
            with c.method("h", "(I)I", static=True) as m:
                m.iload(0).iconst(7).iadd().ireturn()
            with c.method("g", "(I)I", static=True) as m:
                m.iload(0).invokestatic("tt.Chain", "h", "(I)I")
                m.iconst(2).imul().ireturn()
            with c.method("f", "(I)I", static=True) as m:
                m.iload(0).invokestatic("tt.Chain", "g", "(I)I")
                m.iconst(1).isub().ireturn()

            def body(m):
                m.iconst(0).istore(0)
                m.iconst(0).istore(1)
                m.label("t")
                m.iload(1).ldc(300).if_icmpge("e")
                m.iload(1).invokestatic("tt.Chain", "f", "(I)I")
                m.iload(0).iadd().istore(0)
                m.iinc(1, 1).goto("t")
                m.label("e")
                m.iload(0)

            return build_app(c, expr_main("tt.ChainM", body))

        vm = _assert_parity(build, "tt.ChainM")
        names = {m.qualified_name: m
                 for m in vm.jit.methods_compiled}
        for q in ("tt.Chain.f(I)I", "tt.Chain.g(I)I", "tt.Chain.h(I)I"):
            assert names[q].template is not None

    def test_virtual_dispatch_inline_cache(self):
        # two receiver classes alternating: exercises the template's
        # inline-cache hit AND miss paths; ic counters must match
        def build():
            base = ClassAssembler("tt.Base")
            with base.method("<init>", "()V") as m:
                m.return_()
            with base.method("pick", "()I") as m:
                m.iconst(1).ireturn()
            sub = ClassAssembler("tt.Sub", super_name="tt.Base")
            with sub.method("<init>", "()V") as m:
                m.return_()
            with sub.method("pick", "()I") as m:
                m.iconst(2).ireturn()
            c = ClassAssembler("tt.Disp")
            with c.method("call", "(Ltt.Base;)I", static=True) as m:
                m.aload(0).invokevirtual("tt.Base", "pick", "()I")
                m.ireturn()

            def body(m):
                m.new("tt.Base").dup()
                m.invokespecial("tt.Base", "<init>", "()V").astore(0)
                m.new("tt.Sub").dup()
                m.invokespecial("tt.Sub", "<init>", "()V").astore(1)
                m.iconst(0).istore(2)
                m.iconst(0).istore(3)
                m.label("t")
                m.iload(3).ldc(100).if_icmpge("e")
                # base, base, sub: the repeated receiver produces IC
                # hits, the switch produces misses — both paths covered
                m.aload(0).invokestatic("tt.Disp", "call",
                                        "(Ltt.Base;)I")
                m.aload(0).invokestatic("tt.Disp", "call",
                                        "(Ltt.Base;)I")
                m.iadd()
                m.aload(1).invokestatic("tt.Disp", "call",
                                        "(Ltt.Base;)I")
                m.iadd().iload(2).iadd().istore(2)
                m.iinc(3, 1).goto("t")
                m.label("e")
                m.iload(2)

            return build_app(base, sub, c, expr_main("tt.DispM", body))

        vm = _assert_parity(build, "tt.DispM")
        assert vm.console[-1] == "400"
        assert vm.ic_misses > 0 and vm.ic_hits > 0

    def test_exception_from_template_caught_in_caller(self):
        # the hot thrower runs as a template; the exception unwinds
        # into the interpreted caller's handler
        def build():
            c = ClassAssembler("tt.Thrower")
            with c.method("boom", "(I)I", static=True) as m:
                m.iload(0).iconst(90).if_icmplt("ok")
                m.new("java.lang.RuntimeException").dup()
                m.ldc("late")
                m.invokespecial("java.lang.RuntimeException", "<init>",
                                "(Ljava.lang.String;)V")
                m.athrow()
                m.label("ok")
                m.iload(0).ireturn()
            with c.method("attempt", "(I)I", static=True) as m:
                m.label("try")
                m.iload(0).invokestatic("tt.Thrower", "boom", "(I)I")
                m.ireturn()
                m.label("try_end")
                m.label("handler")
                m.pop().iconst(-1).ireturn()
                m.try_catch("try", "try_end", "handler",
                            "java.lang.RuntimeException")

            def body(m):
                m.iconst(0).istore(0)
                m.iconst(0).istore(1)
                m.label("t")
                m.iload(1).ldc(100).if_icmpge("e")
                m.iload(1).invokestatic("tt.Thrower", "attempt", "(I)I")
                m.iload(0).iadd().istore(0)
                m.iinc(1, 1).goto("t")
                m.label("e")
                m.iload(0)

            return build_app(c, expr_main("tt.ThrowM", body))

        vm = _assert_parity(build, "tt.ThrowM")
        # 0+..+89 minus one per throwing call (90..99)
        assert vm.console[-1] == str(sum(range(90)) - 10)
        method = vm.loader.loaded_class("tt.Thrower").find_declared(
            "boom", "(I)I")
        assert method.template is not None

    def test_handler_in_templated_method(self):
        # the handler lives in the same method as the (hot, templated)
        # throw site: the template raises, _dispatch_exception lands on
        # the handler, and the activation finishes interpreted
        def build():
            c = ClassAssembler("tt.SelfCatch")
            with c.method("safe_div", "(II)I", static=True) as m:
                m.label("try")
                m.iload(0).iload(1).idiv().ireturn()
                m.label("try_end")
                m.label("handler")
                m.pop().iconst(-7).ireturn()
                m.try_catch("try", "try_end", "handler",
                            "java.lang.ArithmeticException")

            def body(m):
                m.iconst(0).istore(0)
                m.iconst(0).istore(1)
                m.label("t")
                m.iload(1).ldc(50).if_icmpge("e")
                m.ldc(100).iload(1).iconst(5).irem()
                m.invokestatic("tt.SelfCatch", "safe_div", "(II)I")
                m.iload(0).iadd().istore(0)
                m.iinc(1, 1).goto("t")
                m.label("e")
                m.iload(0)

            return build_app(c, expr_main("tt.SelfM", body))

        vm = _assert_parity(build, "tt.SelfM")
        method = vm.loader.loaded_class("tt.SelfCatch").find_declared(
            "safe_div", "(II)I")
        assert method.template is not None

    def test_uncaught_exception_parity(self):
        def build():
            c = ClassAssembler("tt.Die")
            with c.method("maybe", "(I)I", static=True) as m:
                m.iload(0).ldc(40).if_icmplt("ok")
                m.new("java.lang.IllegalStateException").dup()
                m.ldc("done")
                m.invokespecial("java.lang.IllegalStateException",
                                "<init>", "(Ljava.lang.String;)V")
                m.athrow()
                m.label("ok")
                m.iload(0).ireturn()

            def body(m):
                m.iconst(0).istore(0)
                m.label("t")
                m.iload(0).invokestatic("tt.Die", "maybe", "(I)I").pop()
                m.iinc(0, 1).goto("t")

            c2 = ClassAssembler("tt.DieM")
            with c2.method("main", "()V", static=True) as m:
                body(m)
                m.return_()
            return build_app(c, c2)

        vm = _assert_parity(build, "tt.DieM")
        assert "IllegalStateException" in vm.console[-1]

    def test_native_reentry_and_unwind(self):
        # a templated caller invokes a native method that JNI-calls
        # back into (templated) bytecode, which eventually throws; the
        # Unwind crosses native and is caught by the template
        def build():
            c = ClassAssembler("tt.Cb")
            c.native_method("viaJni", "(I)I", static=True)
            with c.method("twice", "(I)I", static=True) as m:
                m.iload(0).ldc(195).if_icmplt("ok")
                m.new("java.lang.RuntimeException").dup()
                m.ldc("native edge")
                m.invokespecial("java.lang.RuntimeException", "<init>",
                                "(Ljava.lang.String;)V")
                m.athrow()
                m.label("ok")
                m.iload(0).iconst(2).imul().ireturn()
            with c.method("driver", "(I)I", static=True) as m:
                m.label("try")
                m.iload(0).invokestatic("tt.Cb", "viaJni", "(I)I")
                m.ireturn()
                m.label("try_end")
                m.label("handler")
                m.pop().iconst(-3).ireturn()
                m.try_catch("try", "try_end", "handler",
                            "java.lang.RuntimeException")

            def body(m):
                m.iconst(0).istore(0)
                m.iconst(0).istore(1)
                m.label("t")
                m.iload(1).ldc(200).if_icmpge("e")
                m.iload(1).invokestatic("tt.Cb", "driver", "(I)I")
                m.iload(0).iadd().istore(0)
                m.iinc(1, 1).goto("t")
                m.label("e")
                m.iload(0)

            return build_app(c, expr_main("tt.CbM", body))

        def library():
            lib = NativeLibrary("ttcb")

            @lib.native_method("tt.Cb", "viaJni")
            def via_jni(env, value):
                env.charge(20)
                mid = env.get_static_method_id("tt.Cb", "twice", "(I)I")
                return env.call_static_int_method(mid, value)

            return lib

        vm = _assert_parity(build, "tt.CbM", library_factory=library)
        assert vm.console[-1] == str(sum(2 * i for i in range(195))
                                     - 3 * 5)
        driver = vm.loader.loaded_class("tt.Cb").find_declared(
            "driver", "(I)I")
        assert driver.template is not None

    def test_stack_overflow_parity(self):
        # unbounded recursion: both tiers must die with the same
        # simulated StackOverflowSimError at identical cycle counts
        from repro.errors import StackOverflowSimError

        def build():
            c = ClassAssembler("tt.Rec")
            with c.method("down", "(I)I", static=True) as m:
                m.iload(0).iconst(1).iadd()
                m.invokestatic("tt.Rec", "down", "(I)I").ireturn()

            def body(m):
                m.iconst(0).invokestatic("tt.Rec", "down", "(I)I")

            return build_app(c, expr_main("tt.RecM", body))

        outcomes = []
        for tier in (True, False):
            vm = create_vm(VMConfig(jit_policy=JitPolicy(
                template_tier=tier, **HOT)))
            vm.loader.add_classpath_archive(build())
            with pytest.raises(StackOverflowSimError):
                vm.launch("tt.RecM")
            outcomes.append((vm.total_cycles, vm.instructions_retired,
                             vm.method_invocations))
        assert outcomes[0] == outcomes[1]


class TestDeopt:
    def _cold_branch_app(self):
        # `flag` is only read once i reaches 55 — after the template is
        # installed (threshold 5), so the GETSTATIC site is unquickened
        # inside translated code and must deoptimize exactly once
        def build():
            c = ClassAssembler("tt.Cold")
            c.field("flag", static=True, default=100)
            with c.method("work", "(I)I", static=True) as m:
                m.iload(0).ldc(55).if_icmpne("plain")
                m.getstatic("tt.Cold", "flag").ireturn()
                m.label("plain")
                m.iload(0).ireturn()

            def body(m):
                m.iconst(0).istore(0)
                m.iconst(0).istore(1)
                m.label("t")
                m.iload(1).ldc(60).if_icmpge("e")
                m.iload(1).invokestatic("tt.Cold", "work", "(I)I")
                m.iload(0).iadd().istore(0)
                m.iinc(1, 1).goto("t")
                m.label("e")
                m.iload(0)

            return build_app(c, expr_main("tt.ColdM", body))

        return build

    def test_cold_site_deopts_once_then_heals(self):
        vm = _assert_parity(self._cold_branch_app(), "tt.ColdM")
        # two once-then-heal deopts: work's unquickened GETSTATIC at
        # i == 55, plus main's epilogue (OSR enters main's template
        # mid-loop, so the never-yet-executed print path is cold)
        assert vm.jit.template_deopts.get("cold_site") == 2
        # the site quickened during reinterpretation; the template kept
        # running afterwards (no invalidation)
        method = vm.loader.loaded_class("tt.Cold").find_declared(
            "work", "(I)I")
        assert method.template is not None
        assert vm.jit.code_cache.invalidated == 0

    def test_cold_site_value_correct(self):
        vm = _run_tiered(self._cold_branch_app()(), "tt.ColdM", True)
        # sum(0..59) with 55 replaced by flag=100
        assert vm.console[-1] == str(sum(range(60)) - 55 + 100)

    def test_repeated_deopt_invalidates_template(self):
        # force an always-deopting template by excluding IMUL from the
        # supported set, then drive it past the disable threshold
        def build():
            return _hot_loop_app(100)()

        config = VMConfig(jit_policy=JitPolicy(
            template_tier=True, template_deopt_disable_threshold=3,
            **HOT))
        vm = create_vm(config)
        vm.loader.add_classpath_archive(build())

        original = translate

        def crippled(method, target_vm, policy=None,
                     exclude_ops=frozenset()):
            return original(method, target_vm, policy=policy,
                            exclude_ops=frozenset({int(Op.IMUL)}))

        import repro.jit.compiler as compiler_module
        compiler_module.translate = crippled
        try:
            vm.launch("tt.Main")
        finally:
            compiler_module.translate = original
        assert vm.jit.template_deopts.get(
            "unsupported_op:imul", 0) >= 3
        assert vm.jit.code_cache.invalidated == 1
        method = vm.loader.loaded_class("tt.Hot").find_declared(
            "work", "(I)I")
        assert method.template is None
        # correctness unharmed: every deopt reinterpreted the frame
        assert vm.console[-1] == _run_tiered(
            build(), "tt.Main", False).console[-1]

    def test_translator_bailout_is_counted(self):
        # an over-long method must bail with reason "too_long" and be
        # visible in the bail-out counters (no silent fallback)
        def build():
            c = ClassAssembler("tt.Long")
            with c.method("big", "(I)I", static=True) as m:
                m.iload(0)
                for _ in range(30):
                    m.iconst(1).iadd()
                m.ireturn()

            def body(m):
                m.iconst(0).istore(0)
                m.iconst(0).istore(1)
                m.label("t")
                m.iload(1).ldc(20).if_icmpge("e")
                m.iload(1).invokestatic("tt.Long", "big", "(I)I")
                m.iload(0).iadd().istore(0)
                m.iinc(1, 1).goto("t")
                m.label("e")
                m.iload(0)

            return build_app(c, expr_main("tt.LongM", body))

        vm = _run_tiered(build(), "tt.LongM", True,
                         template_code_limit=10)
        assert vm.jit.template_bailouts.get("too_long", 0) >= 1
        method = vm.loader.loaded_class("tt.Long").find_declared(
            "big", "(I)I")
        assert method.compiled and method.template is None


class TestJvmtiInteraction:
    def test_method_event_veto_keeps_interpreted_costs(self):
        # SPA requests entry/exit events -> JIT veto -> nothing is
        # compiled, but hot methods still run as templates, which
        # charge the interpreted costs and fire the method events
        from repro.agents.spa import SPA

        vm = run_main(_hot_loop_app(200)(), "tt.Main", agents=[SPA()],
                      config=VMConfig(jit_policy=JitPolicy(
                          template_tier=True, **HOT)))
        assert vm.jit.vetoed
        assert vm.jit.compile_count == 0
        assert vm.jit.templates_translated > 0
        assert vm.jit.template_entries > 0
        templated = [m for m in vm.jit.hot_methods
                     if m.template is not None]
        assert templated
        for method in templated:
            assert not method.compiled
            assert method.active_costs is method.interp_cost_list

    def test_method_exit_events_identical_across_tiers(self):
        from repro.agents.counting import CountingAgent

        counts = []
        for tier in (True, False):
            vm = run_main(_hot_loop_app(200)(), "tt.Main",
                          agents=[CountingAgent()],
                          config=VMConfig(jit_policy=JitPolicy(
                              template_tier=tier, **HOT)))
            counts.append(dict(vm.jvmti.dispatch_counts))
        assert counts[0] == counts[1]


class TestMetricsExport:
    def test_tier_counters_reach_metrics_registry(self):
        from repro.harness.runner import _record_run_metrics
        from repro.observability import ObservabilityConfig
        from repro.observability.sink import ObservabilitySink

        vm = _run_tiered(self._deopting_app(), "tt.ColdM", True)
        sink = ObservabilitySink(ObservabilityConfig(metrics=True))
        _record_run_metrics(sink, vm, 0.0)
        counters = {record["name"]: record["value"]
                    for record in sink.metrics.as_records()
                    if record["type"] == "counter"}
        assert counters["jit_templates_translated"] >= 1
        assert counters["jit_template_entries"] > 0
        # 2: work's cold GETSTATIC + OSR-entered main's cold epilogue
        assert counters["jit_template_deopt_cold_site"] == 2
        assert counters["inline_cache_hits"] == vm.ic_hits
        assert counters["inline_cache_misses"] == vm.ic_misses

    def test_template_source_bytes_reported(self):
        from repro.harness.runner import _record_run_metrics
        from repro.observability import ObservabilityConfig
        from repro.observability.metrics import (
            format_metrics_summary,
            summarize_metrics,
        )
        from repro.observability.sink import ObservabilitySink

        vm = _run_tiered(_hot_loop_app()(), "tt.Main", True)
        cache = vm.jit.code_cache
        sizes = [len(entry.source.encode("utf-8"))
                 for entry in cache._entries.values()]
        assert cache.source_bytes == sum(sizes) > 0
        assert cache.largest_source_bytes == max(sizes)
        sink = ObservabilitySink(ObservabilityConfig(metrics=True))
        _record_run_metrics(sink, vm, 0.0)
        records = sink.metrics.as_records()
        values = {(r["name"], r["type"]): r["value"] for r in records}
        assert values[("jit_template_source_bytes", "counter")] == \
            sum(sizes)
        assert values[("jit_template_source_bytes_max", "gauge")] == \
            max(sizes)
        summary = format_metrics_summary(summarize_metrics(records))
        assert "jit_template_source_bytes " in summary
        assert "jit_template_source_bytes_max" in summary

    def test_vetoed_run_reports_hot_method_gauges(self):
        # under SPA nothing is compiled, yet the hottest-methods gauges
        # must still show the methods that run as templates
        from repro.agents.spa import SPA
        from repro.harness.runner import _record_run_metrics
        from repro.observability import ObservabilityConfig
        from repro.observability.sink import ObservabilitySink

        vm = run_main(_hot_loop_app(200)(), "tt.Main", agents=[SPA()],
                      config=VMConfig(jit_policy=JitPolicy(
                          template_tier=True, **HOT)))
        sink = ObservabilitySink(ObservabilityConfig(metrics=True))
        _record_run_metrics(sink, vm, 0.0)
        values = {(r["name"], r["type"]): r["value"]
                  for r in sink.metrics.as_records()}
        assert values[("jit_compiled_methods", "counter")] == 0
        assert values[("hot_method_tt_Hot_work_tier", "gauge")] == 1
        assert values[("hot_method_tt_Hot_work_invocations",
                       "gauge")] == 200

    @staticmethod
    def _deopting_app():
        return TestDeopt()._cold_branch_app()()


class TestCliTier:
    def test_table1_interp_tier_matches_golden(self, capsys):
        # the default (template) run is pinned by test_golden_tables;
        # --tier interp must produce the same bytes
        from repro.cli import main

        assert main(["table1", "--tier", "interp"]) == 0
        out = capsys.readouterr().out
        assert out == (RESULTS / "table1.txt").read_text()


class TestMonitorsAndDeadlock:
    """The dynamic deadlock detector, driven from *templated* monitor
    bytecodes.

    The scheduler PR pinned contended MONITORENTER, non-owner
    MONITOREXIT and the structured ``DeadlockError`` report on the
    interpreter; these tests re-pin the same contracts when the
    monitor opcodes execute inside translated templates (hot methods,
    low thresholds), covering both the scheduled and the sequential
    template variants."""

    def _grab_app(self):
        """Warm a monitor-wrapping helper past the invoke threshold,
        then call it on a lock another thread still owns."""
        h = ClassAssembler("tm.Holder", super_name="java.lang.Thread")
        h.field("lock")
        with h.method("<init>", "(Ljava.lang.Object;)V") as m:
            m.aload(0).aload(1).putfield("tm.Holder", "lock")
            m.return_()
        with h.method("run", "()V") as m:
            # acquire and return still holding the monitor
            m.aload(0).getfield("tm.Holder", "lock").monitorenter()
            m.return_()
        c = ClassAssembler("tm.Main")
        with c.method("grab", "(Ljava.lang.Object;)V", static=True) as m:
            m.aload(0).monitorenter()
            m.aload(0).monitorexit()
            m.return_()
        with c.method("main", "()V", static=True) as m:
            m.new("java.lang.Object").dup()
            m.invokespecial("java.lang.Object", "<init>", "()V")
            m.astore(0)
            m.iconst(0).istore(1)
            m.label("warm")
            m.iload(1).ldc(20).if_icmpge("warmed")
            m.aload(0).invokestatic("tm.Main", "grab",
                                    "(Ljava.lang.Object;)V")
            m.iinc(1, 1).goto("warm")
            m.label("warmed")
            m.new("tm.Holder").dup().aload(0)
            m.invokespecial("tm.Holder", "<init>",
                            "(Ljava.lang.Object;)V").astore(2)
            m.aload(2).invokevirtual("tm.Holder", "start", "()V")
            m.aload(2).invokevirtual("tm.Holder", "join", "()V")
            m.aload(0).invokestatic("tm.Main", "grab",
                                    "(Ljava.lang.Object;)V")
            m.return_()
        return build_app(h, c)

    def test_sequential_contended_enter_from_template(self):
        # cores=1: a templated MONITORENTER on a held monitor must
        # raise the detector's structured report, same as the
        # interpreter path
        from repro.errors import DeadlockError

        vm = create_vm(VMConfig(jit_policy=JitPolicy(
            template_tier=True, **HOT)))
        with pytest.raises(DeadlockError) as excinfo:
            run_main(self._grab_app(), "tm.Main", vm=vm)
        assert excinfo.value.cycle, "cycle must name the wait-for edges"
        assert any("monitor" in resource
                   for _, resource, _ in excinfo.value.cycle)
        grab = vm.loader.loaded_class("tm.Main").find_declared(
            "grab", "(Ljava.lang.Object;)V")
        assert grab.template is not None
        assert vm.jit.template_entries > 0

    def _imse_app(self, calls):
        """Hot helper whose MONITOREXIT past count zero must raise the
        *Java* exception from inside the template, caught by its own
        bytecode handler."""
        c = ClassAssembler("tm.Imse")
        with c.method("poke", "()I", static=True) as m:
            m.new("java.lang.Object").dup()
            m.invokespecial("java.lang.Object", "<init>", "()V")
            m.astore(0)
            m.aload(0).monitorenter()
            m.aload(0).monitorexit()
            m.label("try_start")
            m.aload(0).monitorexit()
            m.label("try_end")
            m.iconst(0).ireturn()
            m.label("handler")
            m.pop()
            m.iconst(1).ireturn()
            m.try_catch("try_start", "try_end", "handler",
                        "java.lang.IllegalMonitorStateException")

        def body(m):
            m.iconst(0).istore(0)
            m.iconst(0).istore(1)
            m.label("t")
            m.iload(1).ldc(calls).if_icmpge("e")
            m.invokestatic("tm.Imse", "poke", "()I")
            m.iload(0).iadd().istore(0)
            m.iinc(1, 1).goto("t")
            m.label("e")
            m.iload(0)

        return build_app(c, expr_main("tm.ImseM", body))

    def test_imse_from_template_is_catchable_java_exception(self):
        vm = _assert_parity(lambda: self._imse_app(60), "tm.ImseM")
        assert vm.console[-1] == "60"
        poke = vm.loader.loaded_class("tm.Imse").find_declared(
            "poke", "()I")
        assert poke.template is not None
        assert not vm.thread_deaths

    def _contended_app(self):
        """Two threads serialize a long critical section inside a hot
        (templated) method."""
        c = ClassAssembler("tm.Locker", super_name="java.lang.Thread")
        c.field("lock")
        c.field("done", default=0)
        with c.method("<init>", "(Ljava.lang.Object;)V") as m:
            m.aload(0).aload(1).putfield("tm.Locker", "lock")
            m.return_()
        with c.method("bump", "()V") as m:
            m.aload(0).getfield("tm.Locker", "lock").monitorenter()
            m.iconst(0).istore(1)
            m.label("spin")
            m.iload(1).ldc(2000).if_icmpge("out")
            m.iinc(1, 1).goto("spin")
            m.label("out")
            m.aload(0).getfield("tm.Locker", "lock").monitorexit()
            m.return_()
        with c.method("run", "()V") as m:
            m.iconst(0).istore(1)
            m.label("loop")
            m.iload(1).ldc(12).if_icmpge("done")
            m.aload(0).invokevirtual("tm.Locker", "bump", "()V")
            m.iinc(1, 1).goto("loop")
            m.label("done")
            m.aload(0).iconst(1).putfield("tm.Locker", "done")
            m.return_()
        main_c = ClassAssembler("tm.Main")
        with main_c.method("main", "()V", static=True) as m:
            m.new("java.lang.Object").dup()
            m.invokespecial("java.lang.Object", "<init>", "()V")
            m.astore(0)
            for slot in (1, 2):
                m.new("tm.Locker").dup().aload(0)
                m.invokespecial("tm.Locker", "<init>",
                                "(Ljava.lang.Object;)V")
                m.astore(slot)
            for slot in (1, 2):
                m.aload(slot).invokevirtual("tm.Locker", "start", "()V")
            for slot in (1, 2):
                m.aload(slot).invokevirtual("tm.Locker", "join", "()V")
            m.getstatic("java.lang.System", "out")
            m.aload(1).getfield("tm.Locker", "done")
            m.aload(2).getfield("tm.Locker", "done").iadd()
            m.invokevirtual("java.io.PrintStream", "println", "(I)V")
            m.return_()
        return build_app(c, main_c)

    def test_contended_enter_from_template_blocks_and_hands_over(self):
        # cores=2: templated MONITORENTER on a held monitor must park
        # the thread and take the handover, not crash; cycle parity
        # with the interpreter must hold throughout
        vms = []
        for tier in (True, False):
            vm = run_main(self._contended_app(), "tm.Main",
                          config=VMConfig(cores=2,
                                          jit_policy=JitPolicy(
                                              template_tier=tier,
                                              **HOT)))
            assert vm.console[-1] == "2"
            assert vm.scheduler.monitor_contentions >= 1
            assert vm.scheduler.deadlocks_detected == 0
            vms.append(vm)
        templated, interp = vms
        assert templated.total_cycles == interp.total_cycles
        assert templated.console == interp.console
        bump = templated.loader.loaded_class("tm.Locker").find_declared(
            "bump", "()V")
        assert bump.template is not None
        assert interp.jit.template_entries == 0

    def test_non_owner_exit_from_template_under_scheduler(self):
        # cores=2: templated MONITOREXIT of a monitor owned by another
        # thread must raise the catchable Java exception
        h = ClassAssembler("tm.Spinner", super_name="java.lang.Thread")
        h.field("lock")
        with h.method("<init>", "(Ljava.lang.Object;)V") as m:
            m.aload(0).aload(1).putfield("tm.Spinner", "lock")
            m.return_()
        with h.method("run", "()V") as m:
            m.aload(0).getfield("tm.Spinner", "lock").monitorenter()
            m.iconst(0).istore(1)
            m.label("spin")
            m.iload(1).ldc(200000).if_icmpge("out")
            m.iinc(1, 1).goto("spin")
            m.label("out")
            m.aload(0).getfield("tm.Spinner", "lock").monitorexit()
            m.return_()
        c = ClassAssembler("tm.Main")
        with c.method("drop", "(Ljava.lang.Object;)I", static=True) as m:
            m.label("try_start")
            m.aload(0).monitorexit()
            m.label("try_end")
            m.iconst(0).ireturn()
            m.label("handler")
            m.pop()
            m.iconst(1).ireturn()
            m.try_catch("try_start", "try_end", "handler",
                        "java.lang.IllegalMonitorStateException")
        with c.method("main", "()V", static=True) as m:
            # warm drop() past the threshold on an unowned object (the
            # exit-without-enter IMSE arm), then hit the held monitor
            m.new("java.lang.Object").dup()
            m.invokespecial("java.lang.Object", "<init>", "()V")
            m.astore(0)
            m.iconst(0).istore(1)
            m.label("warm")
            m.iload(1).ldc(20).if_icmpge("warmed")
            m.aload(0).invokestatic("tm.Main", "drop",
                                    "(Ljava.lang.Object;)I")
            m.pop()
            m.iinc(1, 1).goto("warm")
            m.label("warmed")
            m.new("tm.Spinner").dup().aload(0)
            m.invokespecial("tm.Spinner", "<init>",
                            "(Ljava.lang.Object;)V").astore(2)
            m.aload(2).invokevirtual("tm.Spinner", "start", "()V")
            # spin past a couple of quanta so the spinner owns the lock
            m.iconst(0).istore(1)
            m.label("wait")
            m.iload(1).ldc(120000).if_icmpge("go")
            m.iinc(1, 1).goto("wait")
            m.label("go")
            m.getstatic("java.lang.System", "out")
            m.aload(0).invokestatic("tm.Main", "drop",
                                    "(Ljava.lang.Object;)I")
            m.invokevirtual("java.io.PrintStream", "println", "(I)V")
            m.aload(2).invokevirtual("tm.Spinner", "join", "()V")
            m.return_()
        vm = run_main(build_app(h, c), "tm.Main",
                      config=VMConfig(cores=2,
                                      jit_policy=JitPolicy(
                                          template_tier=True, **HOT)))
        assert vm.console[-1] == "1"
        assert not vm.thread_deaths
        drop = vm.loader.loaded_class("tm.Main").find_declared(
            "drop", "(Ljava.lang.Object;)I")
        assert drop.template is not None
