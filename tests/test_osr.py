"""On-stack replacement edge cases.

The happy path (hot loop enters its template mid-method, finishes
there) is pinned by the parity and fuzz suites; these tests target the
corners where OSR interacts with the rest of the tier machinery:
live exception handlers, the deopt-disable threshold racing re-entry,
preemptive scheduling under ``--cores N``, and invalidated templates.
"""

from repro.bytecode.assembler import ClassAssembler
from repro.jit.policy import JitPolicy
from repro.jvm.machine import VMConfig
from repro.launcher import create_vm

from helpers import build_app, expr_main, run_main

#: Low thresholds so tiny test programs compile (and OSR) quickly.
HOT = dict(invoke_threshold=5, backedge_threshold=50)


def _run_tiered(archive, main_class, tier: bool, cores: int = 1,
                **policy_kwargs):
    kwargs = dict(HOT)
    kwargs.update(policy_kwargs)
    config = VMConfig(jit_policy=JitPolicy(template_tier=tier,
                                           **kwargs), cores=cores)
    return run_main(archive, main_class, vm=create_vm(config))


def _observables(vm):
    return {
        "console": list(vm.console),
        "total_cycles": vm.total_cycles,
        "ground_truth": vm.ground_truth(),
        "instructions_retired": vm.instructions_retired,
        "ic_hits": vm.ic_hits,
        "ic_misses": vm.ic_misses,
        "method_invocations": vm.method_invocations,
    }


def _assert_parity(build, main_class, cores: int = 1, **policy_kwargs):
    """Both tiers must agree on every simulated observable; returns the
    template-tier VM for OSR-specific assertions."""
    templated = _run_tiered(build(), main_class, True, cores=cores,
                            **policy_kwargs)
    interp = _run_tiered(build(), main_class, False, cores=cores,
                         **policy_kwargs)
    assert _observables(templated) == _observables(interp)
    assert interp.osr_entries == 0
    return templated


def _sched_app():
    def build():
        c = ClassAssembler("osr.Sched")
        with c.method("work", "(I)I", static=True) as m:
            m.iload(0).iconst(3).imul().iconst(1).iadd().ireturn()

        def body(m):
            m.iconst(0).istore(0)
            m.iconst(0).istore(1)
            m.label("t")
            m.iload(1).ldc(300).if_icmpge("e")
            m.iload(0).invokestatic("osr.Sched", "work", "(I)I")
            m.istore(0)
            m.iinc(1, 1).goto("t")
            m.label("e")
            m.iload(0)

        return build_app(c, expr_main("osr.SchedM", body))

    return build


class TestOsrEdgeCases:
    def test_osr_with_live_exception_handler(self):
        # The loop sits inside a try block; OSR transfers the frame
        # mid-loop, then a division throws from *templated* code and
        # must land on the handler of the very frame OSR entered.
        def build():
            c = ClassAssembler("osr.Try")
            with c.method("loop", "()I", static=True) as m:
                m.iconst(0).istore(0)        # acc
                m.iconst(0).istore(1)        # i
                m.label("try")
                m.label("t")
                m.iload(1).ldc(200).if_icmpge("e")
                # 100 / (199 - i): ArithmeticException at i == 199
                m.ldc(100).ldc(199).iload(1).isub().idiv()
                m.iload(0).iadd().istore(0)
                m.iinc(1, 1).goto("t")
                m.label("e")
                m.label("try_end")
                m.iload(0).ireturn()
                m.label("handler")
                m.pop().iload(0).iconst(7).iadd().ireturn()
                m.try_catch("try", "try_end", "handler",
                            "java.lang.ArithmeticException")

            def body(m):
                m.invokestatic("osr.Try", "loop", "()I")

            return build_app(c, expr_main("osr.TryM", body))

        vm = _assert_parity(build, "osr.TryM")
        assert vm.osr_entries >= 1
        expected = sum(100 // (199 - i) for i in range(199)) + 7
        assert vm.console[-1] == str(expected)

    def test_osr_racing_deopt_disable_threshold(self):
        # Cold static reads activate at i == 60 and i == 70 — both
        # *after* translation at backedge 50, so each OSR re-entry runs
        # into a fresh cold site.  With the disable threshold at 2 the
        # second deopt invalidates the template while its loop is still
        # live; invalidation clears osr_map, so the backedge that fires
        # immediately afterwards must not attempt another entry.  (The
        # first of the three entries is into the counting form, at
        # backedge 2; it leaves at backedge 50, where the compile
        # switches the costs, and that switch counts toward nothing.)
        def build():
            c = ClassAssembler("osr.Race")
            c.field("a", static=True, default=1000)
            c.field("b", static=True, default=2000)

            def body(m):
                m.iconst(0).istore(0)        # acc
                m.iconst(0).istore(1)        # i
                m.label("t")
                m.iload(1).ldc(100).if_icmpge("e")
                m.iload(1).ldc(60).if_icmpne("not_a")
                m.getstatic("osr.Race", "a")
                m.iload(0).iadd().istore(0)
                m.label("not_a")
                m.iload(1).ldc(70).if_icmpne("not_b")
                m.getstatic("osr.Race", "b")
                m.iload(0).iadd().istore(0)
                m.label("not_b")
                m.iload(0).iload(1).iadd().istore(0)
                m.iinc(1, 1).goto("t")
                m.label("e")
                m.iload(0)

            return build_app(c, expr_main("osr.RaceM", body))

        vm = _assert_parity(build, "osr.RaceM",
                            template_deopt_disable_threshold=2)
        assert vm.osr_entries == 3
        assert vm.template_deopts.get("cold_site") == 2
        assert vm.template_deopts.get("counting_switch") == 1
        assert vm.jit.code_cache.invalidated == 1
        main = vm.loader.loaded_class("osr.RaceM").find_declared(
            "main", "()V")
        assert main.template is None
        assert main.osr_map is None
        # OSR entered the hot form twice but the counter stopped with
        # the template
        assert main.osr_entry_count == 3

    def test_osr_under_preemptive_scheduler(self):
        # --cores N runs the deterministic preemptive scheduler, whose
        # quantum checks share the backedge safepoint with the OSR
        # trigger; both tiers must make identical preemption decisions
        # with OSR transferring the frame between them.
        vm = _assert_parity(_sched_app(), "osr.SchedM", cores=2)
        assert vm.osr_entries >= 1

    def test_no_osr_into_invalidated_template(self):
        # With the disable threshold at 1, the first cold-site deopt
        # (right after the only OSR entry into the hot form) invalidates
        # the template mid-loop.  The ~40 backedges that fire afterwards
        # all see the cleared osr_map and must interpret to completion
        # — exactly one entry into the hot form, ever, after the one
        # into the counting form at backedge 2.
        def build():
            c = ClassAssembler("osr.Inv")
            c.field("a", static=True, default=1000)

            def body(m):
                m.iconst(0).istore(0)        # acc
                m.iconst(0).istore(1)        # i
                m.label("t")
                m.iload(1).ldc(100).if_icmpge("e")
                m.iload(1).ldc(60).if_icmpne("skip")
                m.getstatic("osr.Inv", "a")
                m.iload(0).iadd().istore(0)
                m.label("skip")
                m.iload(0).iload(1).iadd().istore(0)
                m.iinc(1, 1).goto("t")
                m.label("e")
                m.iload(0)

            return build_app(c, expr_main("osr.InvM", body))

        vm = _assert_parity(build, "osr.InvM",
                            template_deopt_disable_threshold=1)
        assert vm.osr_entries == 2
        assert vm.jit.code_cache.invalidated == 1
        main = vm.loader.loaded_class("osr.InvM").find_declared(
            "main", "()V")
        assert main.template is None
        assert main.osr_map is None
        expected = 0
        for i in range(100):
            if i == 60:
                expected += 1000
            expected += i
        assert vm.console[-1] == str(expected)

    def test_invalidation_clears_osr_eligibility(self):
        # unit-level: install publishes the translator's osr_map on the
        # method; invalidate withdraws it with the template, so the
        # interpreter's backedge guard (method.osr_map is not None)
        # can never route a frame into dropped code
        vm = _run_tiered(_sched_app()(), "osr.SchedM", True)
        main = vm.loader.loaded_class("osr.SchedM").find_declared(
            "main", "()V")
        assert main.template is not None
        assert main.osr_map  # loop header -> expected stack depth
        vm.jit.code_cache.invalidate(main, "test")
        assert main.template is None
        assert main.osr_map is None
