"""What the template emitter generates, and that it computes the same.

Templates keep Java locals in Python locals (``L0``, ``L1``, ...) and
forward pure operands — local reads and literals — straight into the
instruction that consumes them, writing a stack slot only before a
store or ``iinc`` to the local it reads and at block exits.  Each case
below assembles a small method ``cg.T.f`` with
:class:`~repro.bytecode.assembler.ClassAssembler`, calls it hot from a
calling loop (framed from the interpreted ``main``, or frameless through
the templated ``cg.T.g``), and runs it in both tiers.  Results, cycles,
per-tag totals, retired instructions and the charge digest must agree;
where an OSR entry or a deopt splits one interpreter charge into two
with the same sum and tag, the digest compared is the merged one.
"""

import hashlib
import re

import pytest

from repro.bytecode.assembler import ClassAssembler
from repro.jit.policy import JitPolicy
from repro.jvm.machine import VMConfig
from repro.launcher import create_vm

from helpers import build_app, expr_main, run_main

CALLS = 40
#: Multiplier spreading the calling loop's index over int32 (wraps), so
#: arguments are large, small, positive and negative.
SPREAD = -1640531535
_ARITH = "java.lang.ArithmeticException"

#: A stack slot assigned a pure expression: what forwarding removes.
_SLOT_GETS_PURE = re.compile(r"^\s*s\d+ = (L\d+|-?\d+|None)$", re.M)


class ChargeDigests:
    """sha256 of every ``(thread, cycles, tag)`` charge, raw and with
    adjacent charges of one thread and tag merged; costs nothing."""

    def __init__(self):
        self._raw = hashlib.sha256()
        self._merged = hashlib.sha256()
        self._open = None

    def on_charge(self, thread, cycles: int, tag) -> int:
        self._raw.update(f"{thread.thread_id} {cycles} {tag.name}\n"
                         .encode())
        current = self._open
        if current is not None and current[0] == thread.thread_id \
                and current[2] is tag:
            current[1] += cycles
        else:
            self._close()
            self._open = [thread.thread_id, cycles, tag]
        return 0  # no sampling interrupt: the run is unperturbed

    def _close(self):
        if self._open is not None:
            tid, cycles, tag = self._open
            self._merged.update(f"{tid} {cycles} {tag.name}\n".encode())
            self._open = None

    def digests(self):
        self._close()
        return self._raw.hexdigest(), self._merged.hexdigest()


def _main_loop(entry: str):
    """``main``: xor of ``cg.T.<entry>(i * SPREAD)`` over ``CALLS``
    iterations.  With OSR off ``main`` stays interpreted, so ``entry``
    runs framed and whatever it calls runs frameless."""
    def body(m):
        m.iconst(0).istore(0)
        m.iconst(0).istore(1)
        m.label("t")
        m.iload(1).ldc(CALLS).if_icmpge("e")
        m.iload(0)
        m.iload(1).ldc(SPREAD).imul()
        m.invokestatic("cg.T", entry, "(I)I")
        m.ixor().istore(0)
        m.iinc(1, 1).goto("t")
        m.label("e")
        m.iload(0)
    return expr_main("cg.Main", body)


def _calls_f(c, descriptor="(I)I", args=lambda m: m.iload(0)):
    """``g(I)I``: push ``f``'s arguments and return ``f``'s result."""
    with c.method("g", "(I)I", static=True) as m:
        args(m)
        m.invokestatic("cg.T", "f", descriptor).ireturn()


def _run(classes, tier: bool, entry="g", patch=None, **policy):
    """Run the calling loop over ``classes`` (a callable returning the
    assembled ``cg.T``); returns ``(vm, observables)``."""
    kwargs = dict(invoke_threshold=3, backedge_threshold=40, osr=False)
    kwargs.update(policy)
    vm = create_vm(VMConfig(jit_policy=JitPolicy(template_tier=tier,
                                                 **kwargs)))
    recorder = ChargeDigests()
    vm.threads.samplers.append(recorder)
    built = classes().build()
    if patch is not None:
        patch(built)
    app = build_app(_main_loop(entry))
    app.put_class(built)
    run_main(app, "cg.Main", vm=vm)
    raw, merged = recorder.digests()
    return vm, {
        "console": list(vm.console),
        "cycles": vm.total_cycles,
        "per_tag": vm.ground_truth(),
        "instructions": vm.instructions_retired,
        "uncaught": getattr(vm.threads.all_threads[0].uncaught_exception,
                            "class_name", None),
        "raw_digest": raw,
        "merged_digest": merged,
    }


def _both_tiers(classes, split_charges=False, **kwargs):
    """Run in both tiers and assert every observable agrees; returns
    the templated VM.  ``split_charges``: an OSR entry or a deopt may
    split a charge, so only the merged digest is compared."""
    templated, seen = _run(classes, True, **kwargs)
    _, expected = _run(classes, False, **kwargs)
    if split_charges:
        del seen["raw_digest"], expected["raw_digest"]
    assert seen == expected
    assert seen["uncaught"] is None
    return templated


def _method(vm, name):
    cls = vm.loader.loaded_class("cg.T")
    return next(m for m in cls.methods.values() if m.info.name == name)


def _source(vm, name="f"):
    method = _method(vm, name)
    assert method.template is not None, vm.jit.template_bailouts
    return vm.jit.code_cache.source_for(method)


def _int_class(body, descriptor="(I)I", **calls):
    def build():
        c = ClassAssembler("cg.T")
        with c.method("f", descriptor, static=True) as m:
            body(m)
        _calls_f(c, descriptor, **calls)
        return c
    return build


# -- the five patterns superinstruction fusion used to cover ------------------


def _load_load_arith(m):
    m.iload(0).iconst(3).imul().istore(1)
    m.iload(0).iload(1).iadd().ireturn()


def _load_arith(m):
    m.iload(0).iconst(5).imul().istore(1)
    m.iload(0).iconst(7).ixor().iload(1).isub().ireturn()


def _load_store(m):
    m.iload(0).istore(2)
    m.iconst(-9).istore(1)
    m.iload(2).iload(1).imul().ireturn()


def _load_branch(m):
    m.iload(0).iconst(1).iand().istore(1)
    m.iload(1).ifeq("even")
    m.iload(0).iload(1).if_icmpge("big")
    m.iconst(1).ireturn()
    m.label("big")
    m.iconst(2).ireturn()
    m.label("even")
    m.iconst(3).ireturn()


_PATTERNS = {
    "load_load_arith": (_load_load_arith, "L0 + L1"),
    "load_arith": (_load_arith, "- L1"),
    "load_store": (_load_store, "L2 = L0"),
    "load_branch": (_load_branch, "if L0 >= L1:"),
}


class TestFusionPatterns:
    @pytest.mark.parametrize("entry", ["f", "g"])
    @pytest.mark.parametrize("pattern", sorted(_PATTERNS))
    def test_forwarded_loads(self, pattern, entry):
        body, needle = _PATTERNS[pattern]
        vm = _both_tiers(_int_class(body), entry=entry)
        source = _source(vm)
        assert needle in source, source
        assert not _SLOT_GETS_PURE.search(source), source

    @pytest.mark.parametrize("entry", ["f", "g"])
    def test_aload_getfield(self, entry):
        def build():
            c = ClassAssembler("cg.T")
            c.field("v", default=0)
            with c.method("f", "(I)I", static=True) as m:
                m.new("cg.T").astore(1)
                m.aload(1).iload(0).putfield("cg.T", "v")
                m.aload(1).getfield("cg.T", "v").iconst(1).iadd()
                m.ireturn()
            _calls_f(c)
            return c

        source = _source(_both_tiers(build, entry=entry))
        assert "s0 = L1.fields['v']" in source, source
        assert "L1.fields['v'] = L0" in source, source
        assert not _SLOT_GETS_PURE.search(source), source


# -- forwarding hazards ------------------------------------------------------------


class TestHazards:
    def test_load_on_the_stack_when_its_local_is_stored(self):
        def body(m):
            # x + 5: the first operand is x, loaded before the store
            m.iload(0).iconst(5).istore(0).iload(0).iadd().istore(1)
            # x' - (x' + 10) = -10: loaded before the iinc
            m.iload(0).iinc(0, 10).iload(0).isub()
            m.iload(1).ixor().ireturn()

        vm = _both_tiers(_int_class(body))
        source = _source(vm)
        assert "s0 = L0\n" in source  # pinned before the store/iinc

    def test_dup_of_a_load_then_a_store_to_it(self):
        def body(m):
            # x * (x + 1): the dup'd copy keeps the old x
            m.iload(0).dup().iconst(1).iadd().istore(0)
            m.iload(0).imul().ireturn()

        _both_tiers(_int_class(body))

    def test_forwarded_load_below_a_call(self):
        def build():
            c = ClassAssembler("cg.T")
            with c.method("h", "(I)I", static=True) as m:
                m.iload(0).iconst(3).ishl().iconst(1).iadd().ireturn()
            with c.method("f", "(I)I", static=True) as m:
                # x + h(x + 1), the x below the call's argument; then
                # the call's result is stored over x while an x is
                # still on the stack: x - h(x)
                m.iload(0).iload(0).iconst(1).iadd()
                m.invokestatic("cg.T", "h", "(I)I").iadd().istore(1)
                m.iload(0).iload(0).invokestatic("cg.T", "h", "(I)I")
                m.istore(0).iload(0).isub()
                m.iload(1).ixor().ireturn()
            _calls_f(c)
            return c

        source = _source(_both_tiers(build))
        # the x below the argument stays forwarded across the call...
        assert "_r = L0 + s1" in source, source
        # ...until the store over x pins it
        assert re.search(r"s0 = L0\n\s*L0 = s1\n", source), source

    def test_value_on_the_stack_across_a_branch_into_a_join(self):
        def body(m):
            # odd x: x + (x + 7); even x: x — the x under the branch
            # operand reaches the join in s0 on both edges
            m.iload(0).iload(0).iconst(1).iand().ifeq("join")
            m.iinc(0, 7).iload(0).iadd()
            m.label("join")
            m.ireturn()

        _both_tiers(_int_class(body))


# -- ALU instructions with a literal operand ---------------------------------------


class TestLiteralOperands:
    def test_iand_masks(self):
        def body(m):
            m.iload(0).iconst(-16).iand()
            m.iload(0).iconst(127).iand().ixor()
            m.iconst(0x7FFF0000).iload(0).iand().ixor()
            m.ireturn()

        source = _source(_both_tiers(_int_class(body)))
        assert "= L0 & 127\n" in source  # no wrap for a non-negative mask

    @pytest.mark.parametrize("shift", ["ishl", "ishr", "iushr"])
    def test_shift_counts(self, shift):
        def body(m):
            m.iconst(0).istore(1)
            for count in (0, 31, 32, 33, -1):
                m.iload(0).iconst(count)
                getattr(m, shift)()
                m.iload(1).ixor().iconst(1).ishl().istore(1)
            m.iload(1).ireturn()

        source = _source(_both_tiers(_int_class(body)))
        assert "& 31" not in source, source  # every count folded

    def test_overflowing_literal_arithmetic(self):
        def body(m):
            m.iload(0).ldc(2147483647).iadd()
            m.iconst(2147483647).iload(0).iadd().ixor()
            m.iload(0).ldc(65537).imul().ixor()
            m.iconst(-7).iload(0).imul().ixor()
            m.iconst(-2147483648).iload(0).isub().ixor()
            m.ireturn()

        _both_tiers(_int_class(body))

    def test_literal_with_a_float_operand(self):
        def body(m):
            # i2f makes the non-literal operand a float: the host op
            # runs unwrapped in both tiers
            m.iload(0).i2f().iconst(3).iadd().iconst(5).imul()
            m.iconst(2).isub().f2i().ireturn()

        _both_tiers(_int_class(body))

    def test_division_by_literals(self):
        def body(m):
            m.iload(0).iconst(7).idiv()
            m.iload(0).iconst(-5).irem().ixor()
            m.iload(0).iconst(-1).idiv().ixor()
            m.ireturn()

        _both_tiers(_int_class(body))


# -- Java locals ---------------------------------------------------------------------


def _handler_method(m):
    """``f(x)``: writes local 1 just before an ArithmeticException
    (x & 3 == 0); the handler in ``f`` returns that local."""
    m.label("try")
    m.iload(0).iconst(10).imul().istore(1)
    m.iload(0).iconst(3).iand().ifne("ok")
    m.iload(0).iconst(0).idiv().ireturn()
    m.label("ok")
    m.iload(1).iconst(2).ishr().ireturn()
    m.label("end")
    m.label("handler")
    m.pop().iload(1).iconst(1).iadd().ireturn()
    m.try_catch("try", "end", "handler", _ARITH)


class TestLocals:
    @pytest.mark.parametrize("entry", ["f", "g"],
                             ids=["framed", "frameless"])
    def test_handler_reads_a_local_written_before_the_throw(self, entry):
        vm = _both_tiers(_int_class(_handler_method), entry=entry)
        # the throw site is covered: it hands over the locals
        assert re.search(r"_template_throw\(thread, frame, method, "
                         r"\[L0, L1\], \d+, 'java.lang.ArithmeticException'",
                         _source(vm))

    def test_handler_reads_a_local_after_osr_entry(self):
        def build():
            c = ClassAssembler("cg.T")
            with c.method("f", "(I)I", static=True) as m:
                m.iconst(0).istore(1)                       # acc
                m.iconst(0).istore(2)                       # i
                m.label("head")
                m.iload(2).ldc(300).if_icmpge("done")
                m.label("try")
                m.iload(2).iload(0).ixor().istore(3)        # written
                m.iload(2).iconst(37).irem().ifne("skip")
                m.iload(2).iconst(0).idiv().pop()           # throws
                m.label("skip")
                m.iload(1).iload(3).iadd().istore(1)
                m.label("end")
                m.goto("next")
                m.label("handler")
                m.pop().iload(1).iload(3).isub().istore(1)  # read
                m.label("next")
                m.iinc(2, 1).goto("head")
                m.label("done")
                m.iload(1).ireturn()
                m.try_catch("try", "end", "handler", _ARITH)
            return c

        # the first call goes hot at a backedge and continues by OSR,
        # re-entering after every handler; later calls enter framed
        vm = _both_tiers(build, split_charges=True, entry="f", osr=True,
                         invoke_threshold=1000)
        assert _method(vm, "f").osr_entry_count > 1

    @pytest.mark.parametrize("entry", ["f", "g"],
                             ids=["framed", "frameless"])
    def test_cold_site_deopt_after_locals_were_written(self, entry):
        def build():
            c = ClassAssembler("cg.T")
            c.field("calls", static=True, default=0)
            c.field("k", static=True, default=11)
            with c.method("f", "(I)I", static=True) as m:
                m.iload(0).iconst(7).imul().istore(1)
                m.iload(0).iconst(1).iadd().istore(2)
                # the first ten calls skip the getstatic of k, so that
                # site is cold when f is translated
                m.getstatic("cg.T", "calls").iconst(1).iadd().dup()
                m.putstatic("cg.T", "calls")
                m.iconst(10).if_icmple("skip")
                m.getstatic("cg.T", "k").iload(1).iadd().istore(1)
                m.label("skip")
                m.iload(1).iload(2).ixor().ireturn()
            _calls_f(c)
            return c

        vm = _both_tiers(build, split_charges=True, entry=entry)
        assert vm.jit.template_deopts.get("cold_site", 0) >= 1

    def test_max_locals_equal_to_argument_slots(self):
        def body(m):
            m.iload(0).iload(1).isub().iload(1).imul().ireturn()

        def args(m):
            m.iload(0).iconst(3).iload(0).imul()

        source = _source(_both_tiers(_int_class(body, "(II)I", args=args)))
        assert "L0, L1, = l" in source
        assert "= None" not in source

    def test_method_without_locals(self):
        def build():
            c = ClassAssembler("cg.T")
            with c.method("f", "()I", static=True) as m:
                m.iconst(6).iconst(7).imul().ireturn()
            with c.method("g", "(I)I", static=True) as m:
                m.invokestatic("cg.T", "f", "()I").iload(0).iadd()
                m.ireturn()
            return c

        vm = _both_tiers(build)
        assert _method(vm, "f").info.max_locals == 0
        assert "frame.locals" not in _source(vm)

    def test_max_locals_below_argument_slots_bails(self):
        def patch(class_file):
            for method in class_file.methods:
                if method.name == "f":
                    method.max_locals = 1

        def body(m):  # reads only local 0
            m.iload(0).iconst(2).imul().ireturn()

        build = _int_class(body, "(II)I",
                           args=lambda m: m.iload(0).iload(0))
        vm = _both_tiers(build, patch=patch)
        f = _method(vm, "f")
        assert f.info.max_locals < f.info.arg_slots
        assert f.template is None
        assert vm.jit.template_bailouts == {"args_exceed_locals": 1}
