"""Counting templates: warm methods leave the dispatch loop early.

A method that is not yet hot gets a *counting form* at its
``counting_at``-th taken backedge (a fixed fraction of
``backedge_threshold``): a dispatch-form template that charges the
interpreted costs, keeps ``backedge_count`` exactly as the dispatch
loop does, compiles at the threshold and, where the loop would reload
costs a compile changed, deoptimizes (reason ``counting_switch``,
which never counts toward invalidation).  It is entered framed only,
by the tier dispatch and by OSR.  Each test pins the tier contract —
every simulated observable identical with the template tier on or off
— on one of its edges.
"""

import dataclasses

import pytest

import repro.jit.compiler as compiler_module
from repro.agents.counting import CountingAgent
from repro.bytecode.assembler import ClassAssembler
from repro.bytecode.opcodes import Op
from repro.harness.config import RunConfig
from repro.harness.runner import _build_vm
from repro.jit.compiler import COUNTING_FRACTION
from repro.jit.policy import JitPolicy
from repro.jit.template import SWITCH, translate
from repro.jni.library import NativeLibrary
from repro.jvm.interpreter import Interpreter, Unwind
from repro.jvm.machine import RunState, VMConfig
from repro.launcher import create_vm
from repro.service import warm as warm_module
from repro.service.warm import WarmVM
from repro.workloads import get_workload
from repro.workloads.base import Workload, WorkloadResultCheck

from helpers import build_app, expr_main, run_main
from test_charge_sequence import ChargeRecorder
from test_template_fuzz import _generated_app
from test_template_fuzz import _observables as _fuzz_observables

JVM98 = ["compress", "jess", "db", "javac", "mpegaudio", "mtrt", "jack"]


def _vm(tier, cores=1, libraries=(), **policy):
    vm = create_vm(VMConfig(jit_policy=JitPolicy(template_tier=tier,
                                                 **policy), cores=cores))
    for library in libraries:
        vm.native_registry.register(library, preload=True)
    return vm


def _observables(vm):
    return {
        "console": list(vm.console),
        "total_cycles": vm.total_cycles,
        "ground_truth": vm.ground_truth(),
        "instructions_retired": vm.instructions_retired,
        "method_invocations": vm.method_invocations,
        "native_invocations": vm.native_invocations,
        "jni_invocations": vm.jni_invocations,
        "events": vm.jvmti.events_dispatched,
        "hot": [(m.qualified_name, m.compiled) for m in vm.jit.hot_methods],
        "uncaught": getattr(vm.threads.all_threads[0].uncaught_exception,
                            "class_name", None),
    }


def _parity(app, main_class, libraries=(), agents=(), **policy):
    """Run ``app`` in both tiers; the observables must agree.  Returns
    the template-tier VM."""
    runs = {}
    for tier in (True, False):
        vm = _vm(tier, libraries=[make() for make in libraries], **policy)
        runs[tier] = run_main(app(), main_class, vm=vm,
                              agents=[make() for make in agents])
    assert _observables(runs[True]) == _observables(runs[False])
    assert runs[False].jit.code_cache.counting_installed == 0
    return runs[True]


def _method(vm, class_name, name, descriptor):
    return vm.loader.loaded_class(class_name).find_declared(name,
                                                            descriptor)


def test_trigger_is_a_fixed_fraction_of_the_backedge_threshold():
    assert create_vm().jit.counting_at == 1500 // COUNTING_FRACTION == 62
    assert _vm(True, backedge_threshold=5).jit.counting_at == 1
    assert _vm(False).jit.counting_at == 0  # no template tier, no form


# -- the differential fuzz at thresholds that fire inside counting forms ------

LOW = dict(invoke_threshold=3, backedge_threshold=5)


def _fuzz(seed, tier, cores=1, sampler=False):
    vm = _vm(tier, cores=cores, **LOW)
    if sampler:
        ChargeRecorder().install(vm)
    return run_main(_generated_app(seed), "fz.Main", vm=vm)


@pytest.mark.parametrize("cores,sampler", [(1, False), (1, True),
                                           (2, False)])
@pytest.mark.parametrize("seed", range(8))
def test_low_threshold_differential_parity(seed, cores, sampler):
    """At ``backedge_threshold=5`` the counting form is made at a
    method's first taken backedge and the threshold fires inside it;
    with a sampler attached no counting form may be made."""
    templated = _fuzz(seed, True, cores, sampler)
    interp = _fuzz(seed, False, cores, sampler)
    assert _fuzz_observables(templated) == _fuzz_observables(interp)
    counting = templated.jit.code_cache.counting_installed
    if sampler:
        assert counting == 0
    else:
        # main's loop always gets one, entered by OSR, and leaves it
        # when the threshold compiles main
        assert counting >= 1
        assert templated.template_deopts[SWITCH] >= 1
    assert templated.jit.code_cache.invalidated == 0


# -- targeted cases -----------------------------------------------------------


def _recursive_app():
    """``cr.R.down(n)`` runs a three-iteration loop, then recurses; the
    caller's counting form is live across each recursive call."""
    c = ClassAssembler("cr.R")
    with c.method("down", "(I)I", static=True) as m:
        m.iconst(0).istore(1)
        m.iconst(0).istore(2)
        m.label("top")
        m.iload(2).iconst(3).if_icmpge("out")
        m.iload(1).iload(2).iadd().istore(1)
        m.iinc(2, 1).goto("top")
        m.label("out")
        m.iload(0).ifne("deeper")
        m.iload(1).ireturn()
        m.label("deeper")
        m.iload(0).iconst(1).isub()
        m.invokestatic("cr.R", "down", "(I)I")
        m.iload(1).iadd().ireturn()

    def body(m):
        m.ldc(100).invokestatic("cr.R", "down", "(I)I")

    return build_app(c, expr_main("cr.RM", body))


def test_recursion_goes_hot_under_many_live_counting_activations():
    """The 80th invocation compiles ``down`` while about 60 counting
    activations of it are live; each leaves when its callee returns
    (the loop reloads the costs there), and those 50-plus switches do
    not invalidate the hot template."""
    vm = _parity(_recursive_app, "cr.RM", invoke_threshold=80,
                 template_deopt_disable_threshold=50)
    down = _method(vm, "cr.R", "down", "(I)I")
    assert down.compiled and down.template is not None
    assert vm.jit.code_cache.counting_installed == 1
    assert vm.template_deopts[SWITCH] > 50
    assert vm.jit.code_cache.invalidated == 0
    assert down.counting is False


def _callback_app(at):
    """``cj.J.f(d)``: a four-iteration loop whose iteration ``at`` calls
    a native that calls ``f(d - 1)`` back through JNI."""
    c = ClassAssembler("cj.J")
    c.native_method("cb", "(I)I", static=True)
    with c.method("f", "(I)I", static=True) as m:
        m.iconst(0).istore(1)
        m.iconst(0).istore(2)
        m.label("top")
        m.iload(2).iconst(4).if_icmpge("done")
        m.iload(2).iconst(at).if_icmpne("skip")
        m.iload(0).ifle("skip")
        m.iload(1).iload(0).iconst(1).isub()
        m.invokestatic("cj.J", "cb", "(I)I").iadd().istore(1)
        m.label("skip")
        m.iload(1).iload(2).iload(2).imul().iadd().istore(1)
        m.iinc(2, 1)
        m.goto("top")
        m.label("done")
        m.iload(1).ireturn()

    def body(m):
        m.iconst(8).invokestatic("cj.J", "f", "(I)I")

    return build_app(c, expr_main("cj.JM", body))


def _callback_library():
    lib = NativeLibrary("cjcb")

    @lib.native_method("cj.J", "cb")
    def cb(env, value):
        env.charge(11)
        mid = env.get_static_method_id("cj.J", "f", "(I)I")
        return env.call_static_int_method(mid, value)

    return lib


@pytest.mark.parametrize("at", [0, 2])
def test_jni_callback_makes_its_caller_hot_during_a_native_call(at):
    """A callback compiles ``f`` while its callers wait in the native:
    interpreted ones when they call back before their first backedge
    (``at`` 0), counting forms when after their second (``at`` 2, the
    trigger at ``backedge_threshold=50``).  The dispatch loop keeps the
    interpreted costs it loaded until its next call, return or
    handler, so neither may run compiled costs before then: no OSR
    into the hot form, no switch after a native."""
    vm = _parity(lambda: _callback_app(at), "cj.JM",
                 libraries=[_callback_library], invoke_threshold=5,
                 backedge_threshold=50)
    f = _method(vm, "cj.J", "f", "(I)I")
    assert f.compiled and f.template is not None
    assert vm.jit.code_cache.counting_installed == (at == 2)
    assert vm.jni_invocations > 0
    assert SWITCH not in vm.template_deopts


_ISE = "java.lang.IllegalStateException"


def _throwing_app():
    """``ce.ThrowM.main`` calls ``ce.E.boom(i)`` in a try range 200
    times; ``boom`` throws on every third ``i``."""
    c = ClassAssembler("ce.E")
    with c.method("boom", "(I)I", static=True) as m:
        m.iload(0).iconst(3).irem().ifne("ok")
        m.new(_ISE).dup().ldc("boom")
        m.invokespecial(_ISE, "<init>", "(Ljava.lang.String;)V")
        m.athrow()
        m.label("ok")
        m.iload(0).ireturn()

    main = ClassAssembler("ce.ThrowM")
    with main.method("main", "()V", static=True) as m:
        m.iconst(0).istore(0)
        m.iconst(0).istore(1)
        m.label("t")
        m.iload(1).ldc(200).if_icmpge("e")
        m.label("try")
        m.iload(0).iload(1).invokestatic("ce.E", "boom", "(I)I")
        m.iadd().istore(0)
        m.label("end")
        m.goto("next")
        m.label("handler")
        m.pop().iinc(0, 1000)
        m.label("next")
        m.iinc(1, 1).goto("t")
        m.label("e")
        m.getstatic("java.lang.System", "out").iload(0)
        m.invokevirtual("java.io.PrintStream", "println", "(I)V")
        m.return_()
        m.try_catch("try", "end", "handler", _ISE)

    return build_app(c, main)


def test_exceptions_escape_frameless_callees_of_a_counting_form(
        monkeypatch):
    """A counting form calls its templated callee frameless through
    ``Interpreter._template_call``; an exception escaping the callee
    leaves the frameless count as it found it, and the counting form's
    handler search runs as the dispatch loop's does."""
    escaped = []
    original = Interpreter._template_call

    def spy(self, thread, callee, args):
        try:
            return original(self, thread, callee, args)
        except Unwind:
            escaped.append(callee.template is not None)
            raise

    monkeypatch.setattr(Interpreter, "_template_call", spy)
    vm = _parity(_throwing_app, "ce.ThrowM", invoke_threshold=5,
                 backedge_threshold=50)
    assert vm.jit.code_cache.counting_installed == 1
    assert escaped.count(True) >= 10  # from boom's template
    assert vm.threads.all_threads[0].frameless == 0


def _loop_app():
    """``cv.LoopM.main``: one activation, 3,000 taken backedges."""

    def body(m):
        m.iconst(0).istore(0)
        m.iconst(0).istore(1)
        m.label("t")
        m.iload(1).ldc(3000).if_icmpge("e")
        m.iload(0).iload(1).ixor().istore(0)
        m.iinc(1, 1).goto("t")
        m.label("e")
        m.iload(0)

    return build_app(expr_main("cv.LoopM", body))


@pytest.mark.parametrize("mode", ["veto", "xint"])
def test_activation_runs_on_in_the_counting_form(mode):
    """With the JIT off (a method-event agent's veto, or ``-Xint``)
    going hot changes no costs, so the loop entered into its counting
    form at backedge 62 runs to the end there: no switch, no second
    OSR entry."""
    policy = {"enabled": mode != "xint"}
    agents = [CountingAgent] if mode == "veto" else []
    vm = _parity(_loop_app, "cv.LoopM", agents=agents, **policy)
    main = _method(vm, "cv.LoopM", "main", "()V")
    assert main.hot and not main.compiled
    assert vm.jit.code_cache.counting_installed == 1
    assert vm.osr_entries == 1
    # the println after the loop had not run when the form was made
    assert vm.template_deopts == {"cold_site": 1}
    assert main.backedge_count == 1500  # counted only while not hot


def test_hot_jit_switches_the_live_counting_activation():
    """With the JIT on the compile at backedge 1,500 swaps the costs:
    the counting activation deopts at the loop header and the next
    backedge enters the hot form by OSR."""
    vm = _parity(_loop_app, "cv.LoopM")
    main = _method(vm, "cv.LoopM", "main", "()V")
    assert main.compiled and main.template is not None
    assert vm.template_deopts == {SWITCH: 1, "cold_site": 1}
    assert vm.osr_entries == 2


def _warm_calls_app():
    """``ci.W.f`` runs a 40-iteration loop with an ``imul``; main calls
    it 30 times: warm (backedge 62 comes in the second call), never
    hot."""
    c = ClassAssembler("ci.W")
    with c.method("f", "(I)I", static=True) as m:
        m.iconst(0).istore(1)
        m.label("top")
        m.iload(1).iconst(40).if_icmpge("done")
        m.iload(0).iload(1).imul().istore(0)
        m.iinc(1, 1).goto("top")
        m.label("done")
        m.iload(0).ireturn()

    def body(m):
        m.iconst(0).istore(0)
        m.iconst(0).istore(1)
        m.label("t")
        m.iload(1).iconst(30).if_icmpge("e")
        m.iload(1).invokestatic("ci.W", "f", "(I)I")
        m.iload(0).iadd().istore(0)
        m.iinc(1, 1).goto("t")
        m.label("e")
        m.iload(0)

    return build_app(c, expr_main("ci.WM", body))


class _WarmCalls(Workload):
    name = "warm-calls"
    main_class = "ci.WM"

    def build_classes(self):
        return _warm_calls_app()

    def validate(self, vm):
        return WorkloadResultCheck(bool(vm.console), "")


def test_invalidated_counting_form_is_not_retried(monkeypatch):
    """A counting form that keeps deoptimizing (here at every OSR
    re-entry of its loop) is invalidated like a template and never
    made again: not when the backedge count passes the trigger again
    after a warm reset, which keeps it gone as it keeps ``hot``."""
    made = []

    def deopting(method, vm, policy=None, exclude_ops=frozenset(),
                 osr=False, counting=False):
        if counting:
            made.append(method.qualified_name)
            exclude_ops = frozenset({int(Op.IMUL)})
        return translate(method, vm, policy=policy,
                         exclude_ops=exclude_ops, osr=osr,
                         counting=counting)

    monkeypatch.setattr(compiler_module, "translate", deopting)
    vm = _parity(_warm_calls_app, "ci.WM")
    f = _method(vm, "ci.W", "f", "(I)I")
    assert made.count(f.qualified_name) == 1
    assert not f.hot and f.counting is False and f.osr_map is None
    assert vm.template_deopts["unsupported_op:imul"] == 50
    assert vm.jit.code_cache.invalidation_reasons == {
        "unsupported_op:imul": 1}

    made.clear()
    monkeypatch.setattr(warm_module, "get_workload",
                        lambda name, scale=1: _WarmCalls(scale))
    warm = WarmVM("warm-calls").warmup()
    assert warm.settled and warm.priming_rounds == 2
    assert warm.run()["ok"]
    assert made.count(f.qualified_name) == 1
    f = _method(warm._vm, "ci.W", "f", "(I)I")
    assert f.counting is False
    assert warm._vm.jit.code_cache.invalidated == 1


# -- the counter and the warm pool --------------------------------------------


@pytest.mark.parametrize("tier", ["template", "interp"])
def test_interpreted_instructions_are_counted_at_flushes(tier):
    workload = get_workload("javac")
    vm = _build_vm(workload, RunConfig(vm_config=VMConfig(
        jit_policy=JitPolicy(template_tier=tier == "template"))))
    vm.launch(workload.main_class)
    retired = vm.instructions_retired
    if tier == "interp":
        assert vm.interpreted_instructions == retired
    else:
        assert 0 < vm.interpreted_instructions < retired // 10
    field = next(f for f in dataclasses.fields(RunState)
                 if f.name == "interpreted_instructions")
    assert field.metadata["metric"] == "jvm_interpreted_instructions"


@pytest.mark.parametrize("name", JVM98)
def test_warm_vm_settles_in_two_rounds(name):
    """The counting forms are made in the first priming round and
    never again, so a warm request translates nothing; that holds with
    hot templates inlining their leaf callees (all but compress's and,
    at scale 1, db's)."""
    warm = WarmVM(name).warmup()
    assert warm.settled and warm.priming_rounds == 2
    assert warm.run()["templates_translated"] == 0
    assert (warm._vm.jit.code_cache.inlined_sites > 0) == \
        (name not in ("compress", "db"))
