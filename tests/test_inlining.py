"""Hot leaf callees inlined into their callers' templates.

A call site in a hot template whose callee is a hot, deopt-free leaf
runs the callee's body in the caller's source behind run-time guards,
with today's call as the fallback (``repro.jit.template``, *Inlined
leaf callees*).  Each program here runs three ways: interpreted,
templated with inlining switched off (the call protocol alone), and
templated.  Every simulated observable must be the same in all three,
and every host counter the same in both templated runs, on the edges
where an inlined site falls back (the depth limit, an exception inside
the callee, a callee whose template went away, a type-confused
receiver), after one (a first throw, which loads its exception class)
and where a body must keep the call (a heap write before a check).
Observers that see every call or read the clock between flushes get
no inlining at all.
"""

import itertools

import pytest

from repro.bytecode.assembler import ClassAssembler
from repro.bytecode.opcodes import ArrayKind
from repro.errors import NoSuchFieldError, StackOverflowSimError
from repro.harness.config import AgentSpec, RunConfig
from repro.harness.runner import _build_vm
from repro.jit import template
from repro.jit.policy import JitPolicy
from repro.jni.library import NativeLibrary
from repro.jvm.costmodel import CostModel
from repro.jvm.machine import VMConfig
from repro.launcher import create_vm
from repro.observability.sink import ObservabilityConfig, ObservabilitySink
from repro.workloads import get_workload

from helpers import build_app, expr_main
from test_charge_sequence import ChargeRecorder

#: Low thresholds so tiny programs reach their templates quickly.
HOT = dict(invoke_threshold=5, backedge_threshold=50)
_AIOOBE = "java.lang.ArrayIndexOutOfBoundsException"


def _vm(tier, max_frames=None, libraries=()):
    config = VMConfig(jit_policy=JitPolicy(template_tier=tier, **HOT))
    if max_frames is not None:
        config.cost_model = CostModel(max_frames=max_frames)
    vm = create_vm(config)
    for library in libraries:
        vm.native_registry.register(library, preload=True)
    return vm


def _simulated(vm):
    thread = vm.threads.all_threads[0]
    return {
        "console": list(vm.console),
        "total_cycles": vm.total_cycles,
        "ground_truth": vm.ground_truth(),
        "instructions_retired": vm.instructions_retired,
        "method_invocations": vm.method_invocations,
        "native_invocations": vm.native_invocations,
        "uncaught": getattr(thread.uncaught_exception, "class_name", None),
        "depth": thread.depth,
    }


def _host(vm):
    return {
        "template_entries": vm.template_entries,
        "osr_entries": vm.osr_entries,
        "deopts": dict(vm.template_deopts),
        "ic_hits": vm.ic_hits,
        "ic_misses": vm.ic_misses,
        "pic_hits": vm.pic_hits,
        "invalidated": vm.jit.code_cache.invalidated,
    }


def _three_ways(monkeypatch, run, **vm_kwargs):
    """``run(vm)`` in the interpreter, in templates that inline nothing
    and in templates; checks the contract and returns the three VMs."""
    interp = run(_vm(False, **vm_kwargs))
    with monkeypatch.context() as patch:
        patch.setattr(template, "_inlinees", lambda *args: {})
        plain = run(_vm(True, **vm_kwargs))
    inlined = run(_vm(True, **vm_kwargs))
    assert _simulated(interp) == _simulated(plain) == _simulated(inlined)
    assert _host(plain) == _host(inlined)
    assert plain.jit.code_cache.inlined_sites == 0
    assert inlined.jit.code_cache.inlined_sites > 0
    return interp, plain, inlined


def _launch(archive, main_class):
    def run(vm):
        vm.loader.add_classpath_archive(archive)
        vm.launch(main_class)
        return vm
    return run


_labels = itertools.count()


def _loop(m, local, count, emit):
    """``for (local = 0; local < count; local++) emit(m)``."""
    n = next(_labels)
    top, done = f"loop{n}", f"done{n}"
    m.iconst(0).istore(local)
    m.label(top)
    m.iload(local).ldc(count).if_icmpge(done)
    emit(m)
    m.iinc(local, 1).goto(top)
    m.label(done)


# -- the depth limit ----------------------------------------------------------


def _recursion_app(depth):
    """``rec(k)`` recurses to ``rec(0)``, which calls the leaf; a
    warm-up makes the leaf, then ``rec``, hot first."""
    c = ClassAssembler("il.Rec")
    with c.method("leaf", "(I)I", static=True) as m:
        m.iload(0).iconst(3).imul().iconst(1).iadd().ireturn()
    with c.method("rec", "(I)I", static=True) as m:
        m.iload(0).ifgt("deeper")
        m.iload(0).invokestatic("il.Rec", "leaf", "(I)I").ireturn()
        m.label("deeper")
        m.iload(0).iconst(1).isub().invokestatic("il.Rec", "rec", "(I)I")
        m.iconst(1).iadd().ireturn()

    def body(m):
        _loop(m, 0, 8, lambda m: m.iload(0).invokestatic(
            "il.Rec", "leaf", "(I)I").pop())
        _loop(m, 0, 8, lambda m: m.iconst(2).invokestatic(
            "il.Rec", "rec", "(I)I").pop())
        m.ldc(depth).invokestatic("il.Rec", "rec", "(I)I")

    return build_app(c, expr_main("il.RecM", body))


class TestStackOverflow:
    MAX_FRAMES = 40

    def _run(self, depth):
        def run(vm):
            vm.loader.add_classpath_archive(_recursion_app(depth))
            try:
                vm.launch("il.RecM")
            except StackOverflowSimError:
                vm.overflowed = True
            else:
                vm.overflowed = False
            return vm
        return run

    def test_leaf_call_at_exactly_max_frames(self, monkeypatch):
        """main and ``depth + 1`` frames of ``rec`` fill the stack to
        ``max_frames`` exactly at the leaf's call site: the inlined
        site's guard fails, and the call raises the overflow."""
        depth = self.MAX_FRAMES - 2
        vms = _three_ways(monkeypatch, self._run(depth),
                          max_frames=self.MAX_FRAMES)
        for vm in vms:
            assert vm.overflowed
            assert vm.threads.all_threads[0].depth == self.MAX_FRAMES
        rec = vms[2].loader.loaded_class("il.Rec").find_declared(
            "rec", "(I)I")
        assert rec.template.inlined == 1

    def test_one_frame_fewer_fits(self, monkeypatch):
        depth = self.MAX_FRAMES - 3
        vms = _three_ways(monkeypatch, self._run(depth),
                          max_frames=self.MAX_FRAMES)
        for vm in vms:
            assert not vm.overflowed
            assert vm.console[-1] == str(depth + 1)


# -- an exception inside an inlined callee ------------------------------------


def _array_app():
    """``safe`` calls the leaf ``at`` inside a try range whose handler
    catches the index exception ``at`` throws for an index of 8 or
    more."""
    c = ClassAssembler("il.Arr")
    with c.method("at", "([II)I", static=True) as m:
        m.aload(0).iload(1).iaload().ireturn()
    with c.method("safe", "([II)I", static=True) as m:
        m.iload(1).iconst(5).imul().istore(2)
        m.label("try")
        m.aload(0).iload(1).invokestatic("il.Arr", "at", "([II)I")
        m.iconst(1).iadd().ireturn()
        m.label("try_end")
        m.label("handler")
        m.pop().iload(2).ineg().ireturn()
        m.try_catch("try", "try_end", "handler", _AIOOBE)

    def body(m):
        m.iconst(8).newarray(ArrayKind.INT).astore(1)
        _loop(m, 0, 8, lambda m: m.aload(1).iload(0).iload(0).iconst(3)
              .imul().iastore())
        _loop(m, 0, 8, lambda m: m.aload(1).iload(0).invokestatic(
            "il.Arr", "at", "([II)I").pop())
        m.iconst(0).istore(2)
        _loop(m, 0, 40, lambda m: m.aload(1).iload(0).iconst(15).iand()
              .invokestatic("il.Arr", "safe", "([II)I").iload(2).iadd()
              .istore(2))
        m.iload(2)

    return build_app(c, expr_main("il.ArrM", body))


def _array_expected():
    total = 0
    for i in range(40):
        k = i & 15
        total += 3 * k + 1 if k < 8 else -5 * k
    return total


def test_callee_throws_inside_callers_try_range(monkeypatch):
    """An index out of range leaves the inlined body before any heap
    write; the call runs the callee, whose exception reaches the
    caller's handler as it did before inlining."""
    vms = _three_ways(monkeypatch, _launch(_array_app(), "il.ArrM"))
    assert vms[2].console[-1] == str(_array_expected())
    safe = vms[2].loader.loaded_class("il.Arr").find_declared(
        "safe", "([II)I")
    assert safe.template.inlined == 1
    source = vms[2].jit.code_cache.source_for(safe)
    assert "_g = 0" in source and "interp._template_call(" in source


# -- a callee invalidated after its caller was translated ---------------------


def _invalidation_app():
    c = ClassAssembler("il.Get")
    with c.method("sq", "(I)I", static=True) as m:
        m.iload(0).iload(0).imul().ireturn()
    with c.method("sum", "(I)I", static=True) as m:
        m.iload(0).invokestatic("il.Get", "sq", "(I)I")
        m.iload(0).iconst(1).iadd().invokestatic("il.Get", "sq", "(I)I")
        m.iadd().ireturn()
    n = ClassAssembler("il.N")
    n.native_method("drop", "()V", static=True)

    def each(m):
        m.iload(0).ldc(30).if_icmpne("keep")
        m.invokestatic("il.N", "drop", "()V")
        m.label("keep")
        m.iload(0).invokestatic("il.Get", "sum", "(I)I").iload(1).iadd()
        m.istore(1)

    def body(m):
        _loop(m, 0, 8, lambda m: m.iload(0).invokestatic(
            "il.Get", "sq", "(I)I").pop())
        m.iconst(0).istore(1)
        _loop(m, 0, 60, each)
        m.iload(1)

    return build_app(c, n, expr_main("il.GetM", body))


def _dropping_library():
    lib = NativeLibrary("ildrop")

    @lib.native_method("il.N", "drop")
    def drop(env):
        vm = env.vm
        sq = vm.loader.loaded_class("il.Get").find_declared("sq", "(I)I")
        vm.jit.code_cache.invalidate(sq, "dropped")

    return lib


def test_callee_invalidated_after_caller_translated(monkeypatch):
    """``sum``'s template inlines ``sq`` twice; halfway through, a
    native drops ``sq``'s template.  The guards see it: later calls
    take the call, which interprets ``sq``, so ``template_entries``
    counts exactly what the call protocol alone counts."""
    vms = _three_ways(monkeypatch, _launch(_invalidation_app(), "il.GetM"),
                      libraries=(_dropping_library(),))
    assert vms[2].console[-1] == str(
        sum(i * i + (i + 1) * (i + 1) for i in range(60)))
    get = vms[2].loader.loaded_class("il.Get")
    assert get.find_declared("sum", "(I)I").template.inlined == 2
    assert get.find_declared("sq", "(I)I").template is None
    assert vms[2].jit.code_cache.invalidation_reasons == {"dropped": 1}


# -- where nothing is inlined -------------------------------------------------


def _inlined_sites(name, agent=AgentSpec.none, sampler=False, **vm):
    workload = get_workload(name)
    machine = _build_vm(workload, RunConfig(
        agent=agent(), vm_config=VMConfig(**vm)))
    if sampler:
        ChargeRecorder().install(machine)
    machine.launch(workload.main_class)
    assert workload.validate(machine).ok
    return machine.jit.code_cache.inlined_sites


def test_plain_run_inlines():
    assert _inlined_sites("mtrt") > 0


@pytest.mark.parametrize("agent, sampler, vm", [
    (AgentSpec.spa, False, {}),
    (AgentSpec.callchain, False, {}),
    (AgentSpec.none, True, {}),
    (AgentSpec.none, False, {"cores": 2}),
    (AgentSpec.none, False, {"sanitize": "race"}),
], ids=["spa", "callchain", "sampler", "cores2", "race"])
def test_nothing_inlined_under_observers(agent, sampler, vm):
    """A method event, a sampler, the scheduler and the race sanitizer
    each see every call, so their templates keep the call protocol."""
    assert _inlined_sites("mtrt", agent, sampler, **vm) == 0


def test_nothing_inlined_under_the_tracer():
    workload = get_workload("mtrt")
    machine = _build_vm(workload, RunConfig(
        agent=AgentSpec.none(),
        observability=ObservabilityConfig(trace=True)))
    machine.launch(workload.main_class)
    assert machine.jit.code_cache.inlined_sites == 0


# -- a first throw after an inlined call --------------------------------------


def _first_throw_app():
    """``f`` calls the leaf and then divides by ``i - 50``: the first
    ``ArithmeticException``, loaded when it is synthesized, follows the
    inlined call."""
    c = ClassAssembler("il.Div")
    with c.method("leaf", "(I)I", static=True) as m:
        m.iload(0).iconst(2).imul().ireturn()
    with c.method("f", "(I)I", static=True) as m:
        m.iload(0).invokestatic("il.Div", "leaf", "(I)I")
        m.iload(0).ldc(50).isub().idiv().ireturn()
    main = ClassAssembler("il.DivM")
    with main.method("main", "()V", static=True) as m:
        _loop(m, 1, 8, lambda m: m.iload(1).invokestatic(
            "il.Div", "leaf", "(I)I").pop())
        m.iconst(0).istore(0)
        m.iconst(0).istore(1)
        m.label("t")
        m.iload(1).ldc(60).if_icmpge("e")
        m.label("try")
        m.iload(1).invokestatic("il.Div", "f", "(I)I").iload(0).iadd()
        m.istore(0)
        m.label("try_end")
        m.goto("next")
        m.label("handler")
        m.pop()
        m.label("next")
        m.iinc(1, 1).goto("t")
        m.label("e")
        m.getstatic("java.lang.System", "out").iload(0)
        m.invokevirtual("java.io.PrintStream", "println", "(I)V")
        m.return_()
        m.try_catch("try", "try_end", "handler",
                    "java.lang.ArithmeticException")
    return build_app(c, main)


def _java_div(a, b):
    quotient = abs(a) // abs(b)
    return -quotient if (a < 0) != (b < 0) else quotient


def test_throw_after_inlined_call(monkeypatch):
    """The first ``ArithmeticException`` is synthesized, and its class
    loaded, with the inlined callee's cycles still pending."""
    vms = _three_ways(monkeypatch, _launch(_first_throw_app(), "il.DivM"))
    assert vms[2].console[-1] == str(sum(
        _java_div(2 * i, i - 50) for i in range(60) if i != 50))
    f = vms[2].loader.loaded_class("il.Div").find_declared("f", "(I)I")
    assert f.template.inlined == 1


def test_tracer_sees_class_loads_at_the_parents_clock():
    """A throw synthesizes its exception before it charges, and the
    class-load span reads the clock: with the callee's cycles pending
    past an inlined call the first ``ArithmeticException``'s span would
    start short of the interpreter's.  So the tracer is a gate."""
    spans = []
    for tier in (False, True):
        vm = _vm(tier)
        vm.obs = ObservabilitySink(ObservabilityConfig(trace=True))
        vm.loader.add_classpath_archive(_first_throw_app())
        vm.launch("il.DivM")
        assert vm.jit.code_cache.inlined_sites == 0
        spans.append([event for event in vm.obs.tracer.as_doc_events()
                      if "classload" in event])
    assert spans[0] == spans[1]
    assert any("java.lang.ArithmeticException" in event
               for event in spans[0])


# -- a heap write before a check ----------------------------------------------


def _write_app():
    """``loadThenBump`` checks its index before it writes, so a failed
    check can leave for the call; ``bumpThenLoad`` writes first, so its
    site must keep the call (running it again would count twice).  Each
    is called in a try range of its own method."""
    c = ClassAssembler("il.W")
    c.field("n", default=0)
    with c.method("<init>", "()V") as m:
        m.return_()
    with c.method("loadThenBump", "([II)I") as m:
        m.aload(1).iload(2).iaload().istore(3)
        m.aload(0).dup().getfield("il.W", "n").iconst(1).iadd()
        m.putfield("il.W", "n")
        m.iload(3).ireturn()
    with c.method("bumpThenLoad", "([II)I") as m:
        m.aload(0).dup().getfield("il.W", "n").iconst(1).iadd()
        m.putfield("il.W", "n")
        m.aload(1).iload(2).iaload().ireturn()
    for name in ("loadThenBump", "bumpThenLoad"):
        with c.method(f"try_{name}", "([II)I") as m:
            m.label("try")
            m.aload(0).aload(1).iload(2)
            m.invokevirtual("il.W", name, "([II)I").ireturn()
            m.label("end")
            m.label("handler")
            m.pop().aload(0).getfield("il.W", "n").ineg().ireturn()
            m.try_catch("try", "end", "handler", _AIOOBE)

    def each(m):
        for name in ("loadThenBump", "bumpThenLoad"):
            m.aload(2).aload(1).iload(0).iconst(15).iand()
            m.invokevirtual("il.W", f"try_{name}", "([II)I")
            m.iload(3).iadd().istore(3)

    def body(m):
        m.iconst(8).newarray(ArrayKind.INT).astore(1)
        m.new("il.W").dup().invokespecial("il.W", "<init>", "()V")
        m.astore(2)
        _loop(m, 0, 8, lambda m: m.aload(2).aload(1).iload(0)
              .invokevirtual("il.W", "loadThenBump", "([II)I").pop()
              .aload(2).aload(1).iload(0)
              .invokevirtual("il.W", "bumpThenLoad", "([II)I").pop())
        m.iconst(0).istore(3)
        _loop(m, 0, 40, each)
        m.iload(3)

    return build_app(c, expr_main("il.WM", body))


def test_no_check_after_a_heap_write(monkeypatch):
    vms = _three_ways(monkeypatch, _launch(_write_app(), "il.WM"))
    w = vms[2].loader.loaded_class("il.W")
    first = w.find_declared("try_loadThenBump", "([II)I")
    second = w.find_declared("try_bumpThenLoad", "([II)I")
    assert first.template.inlined == 1
    assert "_g = 0" in vms[2].jit.code_cache.source_for(first)
    assert second.template.inlined == 0


# -- a type-confused receiver -------------------------------------------------


def _confused_app():
    """Under structural verification an int can reach a virtual site
    typed for ``il.T``: the interpreter's getter then fails on the
    int's missing field."""
    t = ClassAssembler("il.T")
    t.field("v", default=3)
    with t.method("<init>", "()V") as m:
        m.return_()
    with t.method("getV", "()I") as m:
        m.aload(0).getfield("il.T", "v").ireturn()
    c = ClassAssembler("il.Call")
    with c.method("call", "(Lil.T;)I", static=True) as m:
        m.aload(0).invokevirtual("il.T", "getV", "()I").ireturn()

    def body(m):
        m.new("il.T").dup().invokespecial("il.T", "<init>", "()V")
        m.astore(0)
        _loop(m, 1, 8, lambda m: m.aload(0).invokevirtual(
            "il.T", "getV", "()I").pop())
        _loop(m, 1, 8, lambda m: m.aload(0).invokestatic(
            "il.Call", "call", "(Lil.T;)I").pop())
        m.iconst(5).invokestatic("il.Call", "call", "(Lil.T;)I")

    return build_app(t, c, expr_main("il.CallM", body))


def test_type_confused_receiver_fails_as_the_call_does(monkeypatch):
    def run(vm):
        vm.loader.add_classpath_archive(_confused_app())
        with pytest.raises(NoSuchFieldError, match="5 has no field v"):
            vm.launch("il.CallM")
        return vm

    vms = _three_ways(monkeypatch, run)
    call = vms[2].loader.loaded_class("il.Call").find_declared(
        "call", "(Lil.T;)I")
    assert call.template.inlined == 1
