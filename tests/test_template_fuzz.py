"""Differential fuzzing of the template tier.

Seeded :class:`random.Random` generators assemble verifiable bytecode
from a gadget vocabulary (constants, ALU, shifts by counts from -1 to
63, masked array accesses, forward branches, ``iinc``, statics, helper
calls, bounded loops — nested, test-last, returning from inside —
short-circuit chains into one merge, try ranges whose last instruction
— or a helper it calls — may throw, writes to a local while a load
of it is still on the operand stack, and calls of small leaf helpers
that hot callers inline: one that branches to early returns, one that
writes a field of ``this``, a constructor, a virtual getter whose site
sees two receiver classes, an array load whose index is sometimes out
of range and a getter through a sometimes-null field), then run the
same program with the template tier on and off.  Most programs get the
structured layout (nested ``while``/``if``); the shapes it cannot
express — an inner loop exiting to its outer loop's header or past the
outer loop, a ``goto`` into a loop body — keep the dispatch form for
the whole method.
Every observable — console, total cycles, per-tag ground truth,
instructions retired, inline-cache statistics, invocation counts,
surviving static state — must be identical.  A low invoke threshold
guarantees the generated method actually executes as a template; the
traps, the throwing helpers (called frameless) and the loops (taken
backedges, OSR entry) exercise every place the template tier hands a
pending cycle count to the interpreter.
"""

import random

import pytest

from repro.bytecode.assembler import ClassAssembler
from repro.bytecode.opcodes import SPECS, ArrayKind, Op
from repro.jit.policy import JitPolicy
from repro.jvm.machine import VMConfig
from repro.launcher import create_vm

from helpers import build_app, expr_main, run_main

CALLS = 40
INT_LOCALS = (0, 1, 2, 3)  # local 0 is the int argument
ARRAY_LOCAL = 4
#: Loop counters, one per nesting depth; no other gadget writes them.
LOOP_LOCALS = (5, 6, 7)
#: A ``fz.B`` whose ``next`` is a ``fz.C`` on odd arguments, else null;
#: the ``fz.C``; and a receiver picked from the two at run time.
B_LOCAL, C_LOCAL, RECEIVER_LOCAL = 8, 9, 10
_B, _C = "fz.B", "fz.C"
#: Literal shift counts: in range, the edges, and the ones a shift
#: masks with ``& 31`` (32 and up, negative).
SHIFT_COUNTS = (0, 1, 5, 7, 31, 32, 33, 63, -1)
_ARITH = "java.lang.ArithmeticException"
_AIOOBE = "java.lang.ArrayIndexOutOfBoundsException"
_ISE = "java.lang.IllegalStateException"


def _helper_class():
    c = ClassAssembler("fz.H")
    c.field("acc", static=True, default=0)
    c.field("caught", static=True, default=0)
    with c.method("mix", "(I)I", static=True) as m:
        m.iload(0).iconst(3).imul().iconst(11).iadd().ireturn()
    # throws (ATHROW) when x & 3 == 0, from a block entered by a
    # branch, so cycles are pending in the template's p/n
    with c.method("check", "(I)I", static=True) as m:
        m.iload(0).iconst(3).iand().ifne("ok")
        m.new(_ISE).dup().ldc("check")
        m.invokespecial(_ISE, "<init>", "(Ljava.lang.String;)V")
        m.astore(1)
        m.iload(0).iconst(4).iand().ifeq("raise")
        m.iinc(0, 1)
        m.label("raise")
        m.aload(1).athrow()
        m.label("ok")
        m.iload(0).iconst(3).imul().ireturn()
    # divides by y & 3: ArithmeticException a quarter of the time
    with c.method("quot", "(II)I", static=True) as m:
        m.iload(0).iconst(7).iadd().iload(1).iconst(3).iand().idiv()
        m.ireturn()
    # early returns from forward branches, two of them into one merge
    with c.method("sign", "(I)I", static=True) as m:
        m.iload(0).iflt("neg")
        m.iload(0).ifeq("zero")
        m.iload(0).iconst(100).if_icmpgt("zero")
        m.iconst(1).ireturn()
        m.label("zero")
        m.iload(0).iconst(5).iand().ireturn()
        m.label("neg")
        m.iconst(-1).ireturn()
    # index masked to 0..15 over an 8-element array: out of range half
    # the time
    with c.method("at", "([II)I", static=True) as m:
        m.aload(0).iload(1).iconst(15).iand().iaload().ireturn()
    return c


def _object_classes():
    """``fz.B`` and its subclass ``fz.C``, whose leaf methods the
    generated code calls."""
    b = ClassAssembler(_B)
    b.field("v", default=0)
    b.field("next")
    with b.method("<init>", "(I)V") as m:
        m.aload(0).iload(1).putfield(_B, "v").return_()
    with b.method("getV", "()I") as m:
        m.aload(0).getfield(_B, "v").ireturn()
    with b.method("nextV", "()I") as m:
        m.aload(0).getfield(_B, "next").getfield(_B, "v").ireturn()
    with b.method("bump", "(I)V") as m:
        m.aload(0).dup().getfield(_B, "v").iload(1).iadd()
        m.putfield(_B, "v").return_()
    c = ClassAssembler(_C, super_name=_B)
    with c.method("getV", "()I") as m:
        m.aload(0).getfield(_B, "v").iconst(7).ixor().ireturn()
    return b, c


def _emit_leaf_call(rng, m):
    """A stack-neutral call of a leaf helper that cannot throw."""
    kind = rng.randrange(5)
    a = rng.choice(INT_LOCALS)
    c = rng.choice(INT_LOCALS)
    if kind == 0:
        m.iload(a).invokestatic("fz.H", "mix", "(I)I").istore(c)
    elif kind == 1:
        m.iload(a).invokestatic("fz.H", "sign", "(I)I").istore(c)
    elif kind == 2:
        m.aload(RECEIVER_LOCAL).iload(a).iconst(63).iand()
        m.invokevirtual(_B, "bump", "(I)V")
    elif kind == 3:
        m.aload(RECEIVER_LOCAL).invokevirtual(_B, "getV", "()I").istore(c)
    else:
        m.new(_B).dup().iload(a).invokespecial(_B, "<init>", "(I)V")
        m.invokevirtual(_B, "getV", "()I").istore(c)


def _emit_simple(rng, m, labels):
    """One stack-neutral gadget (no control flow)."""
    kind = rng.randrange(8)
    a = rng.choice(INT_LOCALS)
    b = rng.choice(INT_LOCALS)
    c = rng.choice(INT_LOCALS)
    if kind == 0:
        m.iconst(rng.randrange(-1000, 1000)).istore(c)
    elif kind == 1:
        op = rng.choice(("iadd", "isub", "imul", "iand", "ior",
                         "ixor"))
        m.iload(a).iload(b)
        getattr(m, op)()
        m.istore(c)
    elif kind == 2:
        # a literal shift count, masked to 0..31 by the shift itself;
        # the result also goes into acc, which the run reports
        m.iload(a).iconst(rng.choice(SHIFT_COUNTS))
        getattr(m, rng.choice(("ishl", "ishr", "iushr")))()
        m.dup().istore(c)
        m.getstatic("fz.H", "acc").ixor().putstatic("fz.H", "acc")
    elif kind == 3:
        # division by a non-zero constant (no ArithmeticException:
        # exception parity is covered by test_template_tier)
        m.iload(a).iconst(rng.choice((3, 7, -5, 13)))
        getattr(m, rng.choice(("idiv", "irem")))()
        m.istore(c)
    elif kind == 4:
        m.iinc(rng.choice(INT_LOCALS), rng.randrange(-3, 4))
    elif kind == 5:
        # masked index keeps every array access in bounds
        m.aload(ARRAY_LOCAL)
        m.iload(a).iconst(7).iand()
        m.iload(b).iastore()
    elif kind == 6:
        m.aload(ARRAY_LOCAL)
        m.iload(a).iconst(7).iand()
        m.iaload().istore(c)
    else:
        m.getstatic("fz.H", "acc").iload(a).ixor()
        m.putstatic("fz.H", "acc")


def _emit_overwrite(rng, m):
    """A stack-neutral gadget that loads local ``a`` and, with that
    load still on the operand stack, stores to ``a`` or ``iinc``s it;
    the old value must reach the consumer, whose result also goes into
    acc, which the run reports."""
    a = rng.choice(INT_LOCALS)
    kind = rng.randrange(3)
    m.iload(a)
    if kind == 0:
        m.iload(rng.choice(INT_LOCALS)).iconst(rng.randrange(-50, 50))
        m.iadd().istore(a)
    elif kind == 1:
        m.iinc(a, rng.choice((-3, -1, 1, 2, 5)))
    else:
        m.dup().iconst(rng.randrange(2, 9)).imul().istore(a)
    m.iload(a)
    getattr(m, rng.choice(("iadd", "isub", "ixor")))()
    m.dup().istore(rng.choice(INT_LOCALS))
    m.getstatic("fz.H", "acc").ixor().putstatic("fz.H", "acc")


def _emit_trap(rng, m):
    """A stack-neutral gadget that may throw; returns what to catch."""
    kind = rng.randrange(7)
    a = rng.choice(INT_LOCALS)
    b = rng.choice(INT_LOCALS)
    c = rng.choice(INT_LOCALS)
    if kind == 5:
        # an inlined array load leaves for the call, which throws
        m.aload(ARRAY_LOCAL).iload(a)
        m.invokestatic("fz.H", "at", "([II)I").istore(c)
        return _AIOOBE
    if kind == 6:
        # an inlined getter through a null field does the same
        m.aload(rng.choice((B_LOCAL, C_LOCAL)))
        m.invokevirtual(_B, "nextV", "()I").istore(c)
        return "java.lang.NullPointerException"
    if kind == 0:
        # division by a masked local: zero a quarter of the time
        m.iload(a).iload(b).iconst(3).iand()
        getattr(m, rng.choice(("idiv", "irem")))()
        m.istore(c)
        return _ARITH
    if kind == 1:
        # index masked to 0..15 over an 8-element array
        m.aload(ARRAY_LOCAL).iload(a).iconst(15).iand()
        m.iaload().istore(c)
        return _AIOOBE
    if kind == 2:
        m.aload(ARRAY_LOCAL).iload(a).iconst(15).iand()
        m.iload(b).iastore()
        return _AIOOBE
    if kind == 3:
        # the helper throws with ATHROW; it runs frameless once hot
        m.iload(a).invokestatic("fz.H", "check", "(I)I").istore(c)
        return _ISE
    # the helper's IDIV throws inside the frameless callee
    m.iload(a).iload(b).invokestatic("fz.H", "quot", "(II)I").istore(c)
    return _ARITH


def _emit_caught(rng, m, labels):
    """A try range: 0-1 plain gadgets, then a trap; the handler in
    ``run`` counts the catch and rejoins the straight-line path."""
    n = next(labels)
    start, end, handler, join = (f"T{n}", f"E{n}", f"H{n}", f"J{n}")
    m.label(start)
    for _ in range(rng.randrange(2)):
        _emit_simple(rng, m, labels)
    catch_type = _emit_trap(rng, m)
    m.label(end)
    m.goto(join)
    m.label(handler)
    m.pop()
    m.getstatic("fz.H", "caught").iconst(1).iadd()
    m.putstatic("fz.H", "caught")
    m.label(join)
    m.try_catch(start, end, handler,
                rng.choice((catch_type, "java.lang.RuntimeException")))


def _emit_loop(rng, m, labels, depth):
    """A bounded loop with the counter of its depth: taken backedges,
    OSR entry when the first (interpreted) call crosses the backedge
    threshold, and loops nested in its body.  Test-first, or test-last
    and entered by a ``goto`` to its test; its body may return."""
    n = next(labels)
    head, body, done = f"LH{n}", f"LB{n}", f"LX{n}"
    counter = LOOP_LOCALS[depth]
    trips = (rng.randrange(8, 48), rng.randrange(2, 10),
             rng.randrange(2, 5))[depth]
    test_last = rng.randrange(3) == 0
    m.iconst(0).istore(counter)
    if test_last:
        m.goto(head)
        m.label(body)
    else:
        m.label(head)
        m.iload(counter).iconst(trips).if_icmpge(done)
    if depth + 1 < len(LOOP_LOCALS) and rng.randrange(2):
        _emit_loop(rng, m, labels, depth + 1)
    for _ in range(rng.randrange(1, 3)):
        _emit_gadget(rng, m, labels, depth + 1)
    if rng.randrange(4) == 0:
        _emit_return(rng, m, labels, counter)
    m.iinc(counter, 1)
    if test_last:
        m.label(head)
        m.iload(counter).iconst(trips).if_icmplt(body)
    else:
        m.goto(head)
        m.label(done)


def _emit_return(rng, m, labels, counter):
    """Return from inside a loop on one of its trips, when a local's
    low bit is set."""
    skip = f"R{next(labels)}"
    m.iload(counter).iconst(rng.randrange(2, 8)).if_icmpne(skip)
    m.iload(rng.choice(INT_LOCALS)).iconst(1).iand().ifeq(skip)
    _fold_and_return(m)
    m.label(skip)


def _fold_and_return(m):
    """Fold every int local into the result and return it."""
    m.iload(0).iload(1).ixor().iload(2).iadd().iload(3).ixor()
    m.ireturn()


def _emit_chain(rng, m, labels, depth):
    """A short-circuit chain: three tests branch to one merge, which
    the fall-through of the last reaches too."""
    merge = f"M{next(labels)}"
    for _ in range(3):
        m.iload(rng.choice(INT_LOCALS))
        if rng.randrange(2):
            m.iconst(rng.randrange(-50, 50))
            getattr(m, rng.choice(("if_icmpgt", "if_icmple",
                                   "if_icmpeq")))(merge)
        else:
            getattr(m, rng.choice(("ifeq", "iflt", "ifne")))(merge)
    _emit_gadget(rng, m, labels, depth + 1)
    m.label(merge)


def _emit_nest_exit(rng, m, labels, depth):
    """Two nested loops whose inner loop leaves to the outer loop's
    header and, on a condition, past the outer loop: neither is one
    innermost ``break`` or ``continue``."""
    n = next(labels)
    outer, inner, done = f"OH{n}", f"IH{n}", f"OX{n}"
    i, j = LOOP_LOCALS[depth], LOOP_LOCALS[depth + 1]
    m.iconst(0).istore(i)
    m.label(outer)
    m.iload(i).iconst(rng.randrange(4, 12)).if_icmpge(done)
    m.iinc(i, 1)
    m.iconst(0).istore(j)
    m.label(inner)
    m.iload(j).iconst(rng.randrange(3, 9)).if_icmpge(outer)
    _emit_simple(rng, m, labels)
    m.iload(j).iload(rng.choice(INT_LOCALS)).iconst(15).iand()
    m.if_icmpgt(done)
    m.iinc(j, 1).goto(inner)
    m.label(done)


def _emit_into_loop(rng, m, labels, depth):
    """A ``goto`` into the middle of a loop body: two ways into one
    cycle, so the method is irreducible."""
    n = next(labels)
    head, mid, done = f"GH{n}", f"GM{n}", f"GX{n}"
    counter = LOOP_LOCALS[depth]
    m.iconst(0).istore(counter)
    m.iload(rng.choice(INT_LOCALS)).iconst(1).iand().ifne(mid)
    m.label(head)
    m.iload(counter).iconst(rng.randrange(4, 16)).if_icmpge(done)
    _emit_simple(rng, m, labels)
    m.label(mid)
    _emit_simple(rng, m, labels)
    m.iinc(counter, 1).goto(head)
    m.label(done)


def _emit_gadget(rng, m, labels, depth=0):
    roll = rng.randrange(16)
    if roll == 15 and depth < 2:
        shape = rng.randrange(10)
        if shape == 0:
            _emit_into_loop(rng, m, labels, depth)
        elif shape == 1:
            _emit_nest_exit(rng, m, labels, depth)
        else:
            _emit_chain(rng, m, labels, depth)
    elif roll >= 13:
        _emit_overwrite(rng, m)
    elif roll == 12 and depth < len(LOOP_LOCALS):
        _emit_loop(rng, m, labels, depth)
    elif roll in (10, 11):
        _emit_caught(rng, m, labels)
    elif roll == 8 and depth < 2:
        # forward branch over a small block: both arms stack-empty
        skip = f"L{next(labels)}"
        cond = rng.choice(("ifeq", "ifne", "iflt", "ifge", "if_icmplt",
                           "if_icmpge", "if_icmpeq", "if_icmpne"))
        m.iload(rng.choice(INT_LOCALS))
        if cond.startswith("if_icmp"):
            m.iload(rng.choice(INT_LOCALS))
        getattr(m, cond)(skip)
        for _ in range(rng.randrange(1, 3)):
            _emit_gadget(rng, m, labels, depth + 1)
        m.label(skip)
    elif roll in (7, 9):
        _emit_leaf_call(rng, m)
    else:
        _emit_simple(rng, m, labels)


def _generated_app(seed: int):
    rng = random.Random(seed)
    labels = iter(range(10_000))

    g = ClassAssembler("fz.G")
    with g.method("run", "(I)I", static=True) as m:
        # prologue: deterministic locals + a scratch array
        m.iload(0).iconst(1).iadd().istore(1)
        m.iload(0).iconst(5).imul().istore(2)
        m.iconst(0).istore(3)
        m.iconst(8).newarray(ArrayKind.INT).astore(ARRAY_LOCAL)
        m.new(_B).dup().iload(0).invokespecial(_B, "<init>", "(I)V")
        m.astore(B_LOCAL)
        m.new(_C).dup().iload(1).invokespecial(_B, "<init>", "(I)V")
        m.astore(C_LOCAL)
        m.aload(B_LOCAL).astore(RECEIVER_LOCAL)
        m.iload(0).iconst(1).iand().ifeq("even")
        m.aload(B_LOCAL).aload(C_LOCAL).putfield(_B, "next")
        m.iload(0).iconst(2).iand().ifeq("even")
        m.aload(C_LOCAL).astore(RECEIVER_LOCAL)
        m.label("even")
        for _ in range(rng.randrange(12, 25)):
            _emit_gadget(rng, m, labels)
        _fold_and_return(m)

    def body(m):
        _warm_leaves(m)
        m.iconst(0).istore(0)
        m.iconst(0).istore(1)
        m.label("t")
        m.iload(1).ldc(CALLS).if_icmpge("e")
        m.iload(1).invokestatic("fz.G", "run", "(I)I")
        m.iload(0).ixor().istore(0)
        m.iinc(1, 1).goto("t")
        m.label("e")
        m.iload(0)

    return build_app(_helper_class(), *_object_classes(), g,
                     expr_main("fz.Main", body))


def _warm_leaves(m):
    """Call every leaf helper along each of its paths often enough that
    it is hot, and its quickened sites known, before ``run`` is
    translated: so ``run``'s templates may inline it."""
    m.iconst(8).newarray(ArrayKind.INT).astore(2)
    m.new(_B).dup().iconst(1).invokespecial(_B, "<init>", "(I)V")
    m.astore(3)
    m.new(_C).dup().iconst(2).invokespecial(_B, "<init>", "(I)V")
    m.astore(4)
    m.aload(3).aload(4).putfield(_B, "next")
    for _ in range(4):
        for value in (-3, 0, 7, 200):
            m.iconst(value).invokestatic("fz.H", "sign", "(I)I").pop()
        m.iconst(5).invokestatic("fz.H", "mix", "(I)I").pop()
        m.iconst(5).iconst(1).invokestatic("fz.H", "quot", "(II)I").pop()
        m.aload(2).iconst(3).invokestatic("fz.H", "at", "([II)I").pop()
        for local in (3, 4):
            m.aload(local).invokevirtual(_B, "getV", "()I").pop()
            m.aload(local).iconst(1).invokevirtual(_B, "bump", "(I)V")
        m.aload(3).invokevirtual(_B, "nextV", "()I").pop()


def _vm(tier: bool):
    return create_vm(VMConfig(jit_policy=JitPolicy(
        template_tier=tier, invoke_threshold=3, backedge_threshold=30)))


def _run(seed: int, tier: bool):
    return run_main(_generated_app(seed), "fz.Main", vm=_vm(tier))


def _count_template_throws(vm):
    """Count the template tier's exception slow paths (host-side spy:
    nothing simulated changes).  ``_template_throw`` goes on to
    ``_template_raise``, so raises beyond throws are ATHROWs and
    exceptions that escaped a call."""
    counts = {"_template_throw": 0, "_template_raise": 0}
    interp = vm.interpreter
    for name in counts:
        original = getattr(interp, name)

        def spy(*args, _name=name, _original=original):
            counts[_name] += 1
            return _original(*args)

        setattr(interp, name, spy)
    return counts


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
        "acc_static": vm.loader.loaded_class("fz.H").statics["acc"],
        "caught": vm.loader.loaded_class("fz.H").statics["caught"],
        "uncaught": getattr(vm.threads.all_threads[0].uncaught_exception,
                            "class_name", None),
    }


@pytest.mark.parametrize("seed", range(8))
def test_differential_parity(seed):
    templated = _run(seed, True)
    interp = _run(seed, False)
    assert _observables(templated) == _observables(interp)
    # the generated method really ran as a template...
    method = templated.loader.loaded_class("fz.G").find_declared(
        "run", "(I)I")
    assert method.compiled
    assert templated.template_entries > 0
    # ...and never silently fell back: any bail-out or deopt is counted
    if method.template is None:
        assert templated.jit.template_bailouts or \
            templated.template_deopts


def _overwrites_a_loaded_local(run) -> bool:
    """Whether ``run``'s bytecode stores to (or ``iinc``s) a local while
    a load of that local is still on the operand stack, on the
    straight-line path a gadget emits (symbolic stack, reset at every
    label, where gadgets begin and end with an empty stack)."""
    targets = {entry.handler for entry in run.exception_table}
    for ins in run.code:
        if isinstance(ins.operand, int) and 0x50 <= int(ins.op) <= 0x60:
            targets.add(ins.operand)
    stack = []
    for pc, ins in enumerate(run.code):
        op = ins.op
        if pc in targets:
            stack = []
        if op in (Op.ILOAD, Op.ALOAD):
            stack.append(ins.operand)
            continue
        written = ins.operand[0] if op == Op.IINC else (
            ins.operand if op in (Op.ISTORE, Op.ASTORE) else None)
        if op == Op.DUP and stack:
            stack.append(stack[-1])
            continue
        spec = SPECS[op]
        pops = spec.pops if spec.pops >= 0 else len(stack)
        pushes = max(spec.pushes, 0)
        del stack[max(len(stack) - pops, 0):]
        if written is not None and written in stack:
            return True
        stack.extend([None] * pushes)
    return False


def test_seeds_are_not_degenerate():
    # the generator must produce distinct programs (guards against a
    # refactor collapsing the vocabulary to one shape); printed values
    # can collide, instruction counts of distinct programs do not
    shapes, caught, throws, raises, osr, overwrites = set(), 0, 0, 0, 0, 0
    structured = inlined = leaving = 0
    for seed in range(8):
        vm = _vm(True)
        counts = _count_template_throws(vm)
        run_main(_generated_app(seed), "fz.Main", vm=vm)
        shapes.add(vm.instructions_retired)
        caught += vm.loader.loaded_class("fz.H").statics["caught"] > 0
        throws += counts["_template_throw"] > 0
        raises += counts["_template_raise"] > counts["_template_throw"]
        osr += vm.osr_entries > 0
        run = vm.loader.loaded_class("fz.G").find_declared("run", "(I)I")
        overwrites += _overwrites_a_loaded_local(run.info)
        structured += vm.jit.code_cache.structured(run)
        # the prologue's two constructor calls are always inlined
        inlined += getattr(run.template, "inlined", 0) > 2
        cache = vm.jit.code_cache
        leaving += "_g = 0" in (cache.source_for(run) or "") + \
            (cache.osr_source_for(run) or "")
    assert len(shapes) >= 6
    # the throwing and looping gadgets fire in the template tier on
    # most seeds: traps raised mid-block, ATHROWs and exceptions
    # relayed from frameless callees, and loops entered by OSR
    assert min(caught, throws, raises, osr) >= 4, \
        (caught, throws, raises, osr)
    # and most programs write a local whose load is still on the stack
    assert overwrites >= 4, overwrites
    # most programs get the structured layout, and the shapes it cannot
    # express keep at least one in the dispatch form
    assert 4 <= structured < 8, structured
    # most programs inline the leaf helpers they call, and some inline
    # a check that leaves for the call (an index out of range, a null)
    assert inlined >= 4, inlined
    assert leaving >= 2, leaving
