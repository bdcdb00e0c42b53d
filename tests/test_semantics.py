"""The opcode table both execution tiers are generated from.

One :class:`~repro.jvm.semantics.Semantics` entry per opcode drives the
dispatch loop and the template emitter, so a rule fixed there holds in
both tiers.  Every behavioural case below runs in both: with the
template tier off, and with it on after the callee has run hot, so its
last call executes as a template.
"""

import math
import pathlib
import re

import pytest

import repro
from repro.bytecode.assembler import ClassAssembler
from repro.bytecode.opcodes import SPECS, VARIABLE, ArrayKind, Op
from repro.errors import NoSuchFieldError, VMError
from repro.jit.policy import JitPolicy
from repro.jvm.interpreter import dispatch_source
from repro.jvm.machine import VMConfig
from repro.jvm.semantics import (
    SEMANTICS,
    THROWS,
    Flush,
    parse,
    split_results,
)

from helpers import build_app, run_main

SRC = pathlib.Path(repro.__file__).parent
#: Good calls before the last one; the invoke threshold is 3, so the
#: callee is hot, and templated, well before the last call.
GOOD_CALLS = 5
TIERS = [pytest.param(True, id="template"), pytest.param(False, id="interp")]


# -- the table ----------------------------------------------------------------


def test_every_op_has_exactly_one_entry():
    assert sorted(SEMANTICS) == sorted(Op)
    for op, entry in SEMANTICS.items():
        assert entry.op is op


@pytest.mark.parametrize("op", list(Op), ids=lambda op: op.name.lower())
def test_flush_class_matches_the_body(op):
    """Only a ONE_SIDE entry flushes inside its body."""
    entry = SEMANTICS[op]
    assert ("!flush" in entry.body) == (entry.flush is Flush.ONE_SIDE)
    if entry.safepoint:
        assert entry.flush is Flush.BEFORE


@pytest.mark.parametrize("op", list(Op), ids=lambda op: op.name.lower())
def test_stack_effect_comes_from_specs(op):
    entry, spec = SEMANTICS[op], SPECS[op]
    if spec.pops == VARIABLE:
        assert "!args" in entry.body
        return
    assert len(entry.operands) == spec.pops
    pushed = [len(split_results(text[3:])) for _, text in parse(entry.body)
              if text.startswith("=> ")]
    assert set(pushed) <= {spec.pushes}
    assert bool(pushed) == (spec.pushes > 0 and entry.cond is None)


def _src_text():
    return "\n".join(path.read_text() for path in SRC.rglob("*.py"))


def test_each_exception_message_is_written_once():
    text = _src_text()
    for _, message in THROWS.values():
        assert text.count(f'"{message}"') == 1, message


def test_no_opcode_constant_blocks_remain():
    assert not re.search(r"int\(Op\.", _src_text())


def test_dispatch_loop_covers_every_opcode_once():
    source = dispatch_source()
    compile(source, "<dispatch>", "exec")
    tested = re.findall(r"(?:if|elif) (op == 0x[0-9a-f]{2}"
                        r"(?: or op == 0x[0-9a-f]{2})*):", source)
    ops = [int(h, 16) for test in tested for h in re.findall(r"0x\w+", test)]
    assert len(ops) == len(set(ops))
    # each family's last member and the chain's last arm are ``else``
    assert "else:  # nop" in source
    assert "pragma: no cover" not in source


# -- running a callee hot in both tiers ---------------------------------------


def _run(tier, callee, descriptor, good, bad, verify="structural"):
    """``t.S.f`` (emitted by ``callee``) is called GOOD_CALLS times with
    the arguments ``good`` pushes, then once with ``bad``'s; each
    result goes to the static ``r``.  Returns the VM."""
    c = ClassAssembler("t.S")
    c.field("r", static=True, default=0)
    c.field("x", default=0)
    with c.method("<init>", "()V") as m:
        m.aload(0).invokespecial("java.lang.Object", "<init>", "()V")
        m.return_()
    with c.method("f", descriptor, static=True) as m:
        callee(m)
    returns = not descriptor.endswith("V")
    with c.method("main", "()V", static=True) as m:
        for push in [good] * GOOD_CALLS + [bad]:
            push(m)
            m.invokestatic("t.S", "f", descriptor)
            if returns:
                m.putstatic("t.S", "r")
        m.return_()
    vm = run_main(build_app(c), "t.S", config=VMConfig(
        verify=verify, jit_policy=JitPolicy(template_tier=tier,
                                            invoke_threshold=3)))
    return vm


def _templated(vm, descriptor):
    method = vm.loader.loaded_class("t.S").find_declared("f", descriptor)
    return method.template is not None


def _result(vm):
    return vm.loader.loaded_class("t.S").statics["r"]


def _nothing(m):
    pass


def _obj(m):
    m.new("t.S").dup().invokespecial("t.S", "<init>", "()V")


def _array(m):
    m.iconst(3).newarray(ArrayKind.INT)


# -- JVM rules for typed-verifiable float, iinc and field code ----------------


def _float_const(value):
    def body(m):
        if value == "inf":
            m.ldc(1.0).ldc(0.0).fdiv()
        elif value == "-inf":
            m.ldc(-1.0).ldc(0.0).fdiv()
        elif value == "nan":
            m.ldc(0.0).ldc(0.0).fdiv()
        else:
            m.ldc(value)
    return body


@pytest.mark.parametrize("tier", TIERS)
@pytest.mark.parametrize("value,expected", [
    ("inf", 2147483647), ("-inf", -2147483648), ("nan", 0),
    (1e10, 2147483647), (-1e10, -2147483648), (2147483647.5, 2147483647),
    (-2147483648.5, -2147483648), (-2.9, -2), (2.9, 2), (0.5, 0)])
def test_f2i_follows_jvm_rules(tier, value, expected):
    def callee(m):
        _float_const(value)(m)
        m.f2i().ireturn()

    vm = _run(tier, callee, "()I", _nothing, _nothing, verify="typed")
    assert _result(vm) == expected
    assert _templated(vm, "()I") == tier


@pytest.mark.parametrize("tier", TIERS)
def test_fdiv_of_nan_by_zero_is_nan(tier):
    def callee(m):
        _float_const("nan")(m)
        m.ldc(0.0).fdiv().ireturn()

    vm = _run(tier, callee, "()F", _nothing, _nothing, verify="typed")
    assert math.isnan(_result(vm))
    assert _templated(vm, "()F") == tier


@pytest.mark.parametrize("tier", TIERS)
def test_iinc_keeps_a_float_local_a_float(tier):
    def callee(m):
        m.ldc(1.5).istore(0).iinc(0, 2).iload(0).ireturn()

    vm = _run(tier, callee, "()F", _nothing, _nothing, verify="typed")
    assert _result(vm) == 3.5 and type(_result(vm)) is float
    assert _templated(vm, "()F") == tier


@pytest.mark.parametrize("tier", TIERS)
def test_iinc_still_wraps_an_int_local(tier):
    def callee(m):
        m.ldc(2147483647).istore(0).iinc(0, 1).iload(0).ireturn()

    vm = _run(tier, callee, "()I", _nothing, _nothing, verify="typed")
    assert _result(vm) == -2147483648


@pytest.mark.parametrize("tier", TIERS)
@pytest.mark.parametrize("bad", [_array, lambda m: m.iconst(5)],
                         ids=["array", "int"])
def test_putfield_on_a_non_object_is_no_such_field(tier, bad):
    """Like getfield: the site is quickened by the good calls, so the
    template runs its own putfield on the bad receiver."""
    def callee(m):
        m.aload(0).iconst(7).putfield("t.S", "x").return_()

    with pytest.raises(NoSuchFieldError, match="has no field x"):
        _run(tier, callee, "(Lt.S;)V", _obj, bad)


@pytest.mark.parametrize("tier", TIERS)
def test_getfield_on_an_array_is_no_such_field(tier):
    def callee(m):
        m.aload(0).getfield("t.S", "x").ireturn()

    with pytest.raises(NoSuchFieldError, match="has no field x"):
        _run(tier, callee, "(Lt.S;)I", _obj, _array)


# -- a type-confused operand under structural verification --------------------

_CONFUSED = {
    "arraylength": (lambda m: m.aload(0).arraylength().ireturn(),
                    "([I)I", _array),
    "iaload": (lambda m: m.aload(0).iconst(0).iaload().ireturn(),
               "([I)I", _array),
    "monitorenter": (lambda m: m.aload(0).monitorenter().aload(0)
                     .monitorexit().iconst(0).ireturn(), "(Lt.S;)I", _obj),
    "instanceof": (lambda m: m.aload(0).instanceof("java.lang.Object")
                   .ireturn(), "(Lt.S;)I", _obj),
    "checkcast": (lambda m: m.aload(0).checkcast("java.lang.Object").pop()
                  .iconst(0).ireturn(), "(Lt.S;)I", _obj),
}


@pytest.mark.parametrize("tier", TIERS)
@pytest.mark.parametrize("case", sorted(_CONFUSED) + ["iadd"])
def test_type_confused_operand_is_a_vm_error(tier, case):
    if case == "iadd":
        callee = lambda m: m.iload(0).iload(1).iadd().ireturn()  # noqa: E731
        descriptor = "(II)I"
        good = lambda m: m.iconst(1).iconst(2)  # noqa: E731
        bad = lambda m: m.aconst_null().iconst(2)  # noqa: E731
    else:
        callee, descriptor, good = _CONFUSED[case]
        bad = lambda m: m.iconst(5)  # noqa: E731
    with pytest.raises(VMError, match=r"type-confused operand in") as info:
        _run(tier, callee, descriptor, good, bad)
    err = info.value
    assert "t.S.f" in str(err)
    assert isinstance(err.__cause__, (AttributeError, TypeError))
    if tier:
        assert "template of t.S.f" in str(err)
    else:
        assert re.search(rf"at pc \d+ \({case}\)", str(err)), str(err)


# -- int arithmetic without type tests, array loads without len() -------------

MAX, MIN = 2147483647, -2147483648


def _push(*values):
    def body(m):
        for value in values:
            m.ldc(value)
    return body


_EDGES = [
    ("iadd", (MAX, 1), MIN), ("isub", (MIN, 1), MAX),
    ("imul", (MIN, -1), MIN), ("imul", (MAX, MAX), 1),
    ("iadd", (MIN, MIN), 0), ("isub", (MAX, -1), MIN),
]


@pytest.mark.parametrize("tier", TIERS)
@pytest.mark.parametrize("literal", [False, True],
                         ids=["operands", "literal"])
@pytest.mark.parametrize("op,args,expected", _EDGES,
                         ids=[f"{op}{a}" for op, a, _ in _EDGES])
def test_int_arithmetic_wraps_at_the_edges(tier, literal, op, args,
                                           expected):
    """The result, computed first, is wrapped when it is an int out of
    range; with a literal second operand the template specializes."""
    a, b = args

    def callee(m):
        m.iload(0)
        if literal:
            m.iconst(b)
        else:
            m.iload(1)
        getattr(m, op)().ireturn()

    push = _push(a) if literal else _push(a, b)
    descriptor = "(I)I" if literal else "(II)I"
    vm = _run(tier, callee, descriptor, push, push)
    assert _result(vm) == expected
    assert _templated(vm, descriptor) == tier
    if tier:
        method = vm.loader.loaded_class("t.S").find_declared("f", descriptor)
        sym = {"iadd": "+", "isub": "-", "imul": "*"}[op]
        operand = b if literal else "L1"
        assert f"_r = L0 {sym} {operand}\n" in \
            vm.jit.code_cache.source_for(method)


@pytest.mark.parametrize("tier", TIERS)
@pytest.mark.parametrize("op,local,delta,expected", [
    ("ineg", MIN, None, MIN), ("ineg", MAX, None, -MAX),
    ("iinc", MAX, 1, MIN), ("iinc", MIN, -1, MAX),
    ("iinc", MAX, -1, MAX - 1)])
def test_ineg_and_iinc_wrap_at_the_edges(tier, op, local, delta, expected):
    def callee(m):
        if op == "ineg":
            m.iload(0).ineg()
        else:
            m.iinc(0, delta).iload(0)
        m.ireturn()

    vm = _run(tier, callee, "(I)I", _push(local), _push(local))
    assert _result(vm) == expected
    assert _templated(vm, "(I)I") == tier


@pytest.mark.parametrize("tier", TIERS)
@pytest.mark.parametrize("case,expected", [
    ("iadd", 3000000001.0), ("imul", 4294967296.0),
    ("iadd_int_first", 2147483648.5), ("iinc", 2147483648.0)])
def test_float_results_stay_unwrapped(tier, case, expected):
    """Int op int is the only operation giving an int, so a float
    result above 2**31 fails the type test and is not wrapped."""
    def callee(m):
        if case == "iadd":
            m.ldc(3e9).iconst(1).iadd()
        elif case == "imul":
            m.ldc(65536.0).iload(0).i2f().imul()
        elif case == "iadd_int_first":
            m.ldc(MAX).ldc(1.5).iadd()
        else:
            m.ldc(2147483647.0).istore(1).iinc(1, 1).iload(1)
        m.ireturn()

    vm = _run(tier, callee, "(I)F", _push(65536), _push(65536))
    assert _result(vm) == expected and type(_result(vm)) is float
    assert _templated(vm, "(I)F") == tier


_BITWISE = [
    ("ishr", (MIN, 31), -1), ("ishr", (MAX, 1), MAX >> 1),
    ("ior", (MIN, MAX), -1), ("ixor", (MIN, -1), MAX),
    ("ixor", (MAX, MIN), -1), ("iand", (-1, MIN), MIN),
    ("iand", (MIN, MAX), 0),
]
#: The int32 range test ``!wrap`` renders.
_RANGE_TEST = "type(_r) is int"


@pytest.mark.parametrize("tier", TIERS)
@pytest.mark.parametrize("literal", [False, True],
                         ids=["operands", "literal"])
@pytest.mark.parametrize("op,args,expected", _BITWISE,
                         ids=[f"{op}{a}" for op, a, _ in _BITWISE])
def test_bitwise_ops_stay_in_range_unwrapped(tier, literal, op, args,
                                             expected):
    """On int32 operands ``ishr``/``ior``/``ixor``/``iand`` never leave
    int32 range, so no range test follows them."""
    a, b = args

    def callee(m):
        m.iload(0)
        if literal:
            m.iconst(b)
        else:
            m.iload(1)
        getattr(m, op)().ireturn()

    push = _push(a) if literal else _push(a, b)
    descriptor = "(I)I" if literal else "(II)I"
    vm = _run(tier, callee, descriptor, push, push)
    assert _result(vm) == expected
    assert _templated(vm, descriptor) == tier
    if tier:
        method = vm.loader.loaded_class("t.S").find_declared("f", descriptor)
        assert _RANGE_TEST not in vm.jit.code_cache.source_for(method)


def _dispatch_arm(mnemonic):
    """The dispatch loop's lines for ``mnemonic``."""
    found = re.search(rf"op == 0x[0-9a-f]+:  # {mnemonic}\n(.*?)\n *elif ",
                      dispatch_source(), re.S)
    assert found, mnemonic
    return found.group(1)


@pytest.mark.parametrize("mnemonic", ["ishr", "iand", "ior", "ixor"])
def test_dispatch_loop_has_no_range_test_after_bitwise_ops(mnemonic):
    assert _RANGE_TEST not in _dispatch_arm(mnemonic)
    assert _RANGE_TEST in _dispatch_arm("ishl")


def _uncaught(vm):
    exc = vm.threads.all_threads[0].uncaught_exception
    return exc.class_name, exc.fields["message"].string_value


@pytest.mark.parametrize("tier", TIERS)
@pytest.mark.parametrize("load", ["iaload", "aaload"])
@pytest.mark.parametrize("index", [-1, -2147483648, 3, 4, 2147483647])
def test_array_load_out_of_bounds_names_the_index(tier, load, index):
    def callee(m):
        m.aload(0).iload(1)
        getattr(m, load)()
        m.areturn() if load == "aaload" else m.ireturn()

    def array(m):
        if load == "aaload":
            m.iconst(3).newarray(ArrayKind.REF)
        else:
            _array(m)

    descriptor = "([Ljava.lang.Object;I)Ljava.lang.Object;" \
        if load == "aaload" else "([II)I"
    vm = _run(tier, callee, descriptor,
              lambda m: (array(m), m.iconst(2)), lambda m: (array(m),
                                                            m.ldc(index)))
    assert _uncaught(vm) == ("java.lang.ArrayIndexOutOfBoundsException",
                             str(index))
    assert _templated(vm, descriptor) == tier


@pytest.mark.parametrize("tier", TIERS)
@pytest.mark.parametrize("index", [1.0, 3.0, 7.5], ids=["in", "at", "past"])
def test_float_array_index_is_a_vm_error(tier, index):
    """Type-confused code typed verification rejects: a float index at
    or above zero ends as a VMError wherever it points."""
    def callee(m):
        m.aload(0).iload(1).iaload().ireturn()

    with pytest.raises(VMError, match=r"type-confused operand in") as info:
        _run(tier, callee, "([II)I", lambda m: (_array(m), m.iconst(1)),
             lambda m: (_array(m), m.ldc(index)))
    assert isinstance(info.value.__cause__, TypeError)
