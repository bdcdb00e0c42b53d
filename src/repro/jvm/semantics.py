"""One description of every opcode, read by both execution tiers.

:data:`SEMANTICS` holds one :class:`Semantics` entry per :class:`Op`;
the dispatch loop (:mod:`repro.jvm.interpreter`) is generated from it
and the template translator (:mod:`repro.jit.template`) emits from it.
An entry names the popped operands, deepest first (how many an opcode
pops and pushes is :data:`~repro.bytecode.opcodes.SPECS`'; an invoke's
arguments are ``!args``, its receiver ``recv``), and gives a ``body``:
a Python fragment over ``{name}`` fields — the operands,
``local``/``imm``/``delta``/``kind`` from the instruction, ``pc``, the
``quick`` fields of the constant the first execution resolves
(``resolve``: the dispatch loop's code, assigning ``q``) and the
``fields`` defaults a :class:`Literal` specialization may override.
Its other fields say where it charges the pending cycles
(:class:`Flush`, plus an invoke's ``safepoint``), which operands are
references (``refs``), and whether a pure result is forwarded rather
than stored (``forwards``) or the body assigns a Java local
(``writes_local``).  Lines starting with ``!`` or ``=>`` are
directives, which each backend renders in its own terms:

* ``=> e1, e2`` — the pushed values; an operand written back to its own
  position leaves that slot alone;
* ``!throw NAME`` / ``!fail NAME`` — the Java exception
  :data:`THROWS` names, or the host linkage error :data:`FAILS` names;
  ``!raise {e}`` throws an existing exception object;
* ``!flush [{test}]`` — charge the pending cycles here, or where
  ``test`` holds (a ``Flush.ONE_SIDE`` entry's side);
* ``!wrap`` wraps ``_r`` to int32 when it is out of range and an int.
  Int op int is the only operation whose result is an int, so
  ``iadd``/``isub``/``imul``/``ineg``/``iinc`` compute first and test
  no operand type: a float result stays unwrapped, and type-confused
  operands raise the host ``TypeError`` (a ``VMError``) as before.
  ``ishr``, ``iand``, ``ior`` and ``ixor`` have no ``!wrap``: on int32
  operands their results never leave int32 range (``ishl``'s can);
* ``!san LINE`` / ``!sched LINE`` / ``!nosched LINE`` — a line for the
  race sanitizer, or for running with or without the preemptive
  scheduler, kept or dropped at translation by the template and tested
  at run time (``SAN``/``SP``) by the dispatch loop;
* ``!args`` / ``!call`` / ``!return [{v}]`` — each tier's own call and
  return protocols.

Float and ``iinc`` rules (as the JVM's): ``f2i`` turns NaN into 0 and
saturates infinities and out-of-range values to the int32 bounds;
``fdiv`` by zero gives NaN for a zero or NaN dividend and a signed
infinity otherwise; ``iinc`` wraps an int local and leaves a float
local a float.

Array loads test only the negative side of the index; a too-large one
is the host ``IndexError``, so loads call no ``len()``.  Array stores
keep both tests, since ``normalize`` must not run before them.  A float
index (type-confused code, which typed verification rejects) at or
above zero ends as a ``VMError`` wherever it points; a negative one
throws ``ArrayIndexOutOfBoundsException`` like any negative index.
"""

from __future__ import annotations

import enum
import functools
from collections import namedtuple
import math
import re
import textwrap
from string import Formatter
from typing import (Callable, Dict, FrozenSet, List, Mapping, NamedTuple,
                    Optional, Tuple)

from repro.bytecode.opcodes import SPECS, ArrayKind, Op
from repro.classfile.constant_pool import CpMethodRef
from repro.errors import NoSuchFieldError, NoSuchMethodError
from repro.jvm.values import JArray


class Flush(enum.Enum):
    """Where an instruction charges the pending cycles: never (its cost
    rides on to the next flush), before its effect (a VM boundary: a
    call, a static, an allocation, a return), or on one run-time side
    only, at the body's ``!flush`` (a string ``ldc``, a contended
    ``monitorenter`` under the scheduler)."""

    NONE = "none"
    BEFORE = "before"
    ONE_SIDE = "one_side"


class Quick(NamedTuple):
    """One field of a quickened constant.

    ``access`` reads it from the quickened value ``{q}`` at run time.
    At a quickened site the template binds its value as the constant
    ``{bind}{pc}`` (``bind`` may depend on the value) or, with no
    ``bind``, inlines it as a literal.  ``known`` computes it from the
    constant pool at translation, so a site not yet quickened inlines
    it too."""

    access: str
    bind: object = None
    known: Optional[Callable] = None

    def value(self, q):
        return eval(_access_code(self.access), {"q": q})


@functools.lru_cache(maxsize=None)
def _access_code(access: str):
    return compile(access.format(q="q"), "<quick>", "eval")


class Literal(NamedTuple):
    """A template specialization: when ``when`` (given the int-literal
    operands by name) returns a dict, emit ``body`` (the entry's own
    when None) with those fields added."""

    when: Callable[[Mapping[str, int]], Optional[Mapping[str, object]]]
    body: Optional[str] = None


class Semantics(NamedTuple):
    """What one opcode does; see the module docstring."""

    op: Op
    operands: Tuple[str, ...] = ()
    body: str = ""
    refs: FrozenSet[str] = frozenset()
    cond: Optional[str] = None
    resolve: Optional[str] = None
    quick: Mapping[str, Quick] = {}
    flush: Flush = Flush.NONE
    safepoint: bool = False
    forwards: bool = False
    writes_local: bool = False
    fields: Mapping[str, str] = {}
    literal: Tuple[Literal, ...] = ()

    @property
    def spec(self):
        return SPECS[self.op]

    def same_as(self, other: "Semantics") -> bool:
        """Equal apart from the opcode (one dispatch arm serves both)."""
        return other._replace(op=self.op) == self


class Lit(NamedTuple):
    """A value known at translation: code shows its ``repr``, and a
    message folds its text into the neighbouring literal text."""

    value: object


_NPE = "java.lang.NullPointerException"
_AIOOBE = "java.lang.ArrayIndexOutOfBoundsException"

#: Java exceptions the instructions throw: name -> (class, message).
#: A message is a format over the entry's fields; ``!s`` converts an
#: int.
THROWS: Dict[str, Tuple[str, str]] = {
    "null_getfield": (_NPE, "getfield {name}"),
    "null_putfield": (_NPE, "putfield {name}"),
    "null_array_load": (_NPE, "array load"),
    "null_array_store": (_NPE, "array store"),
    "null_arraylength": (_NPE, "arraylength"),
    "null_invoke": (_NPE, "invoke {name} on null"),
    "null_throw": (_NPE, "throw null"),
    "null_monitorenter": (_NPE, "monitorenter"),
    "null_monitorexit": (_NPE, "monitorexit"),
    "index": (_AIOOBE, "{i!s}"),
    "div_zero": ("java.lang.ArithmeticException", "/ by zero"),
    "cast": ("java.lang.ClassCastException", "{o.class_name} -> {name}"),
    "negative_size": ("java.lang.NegativeArraySizeException", "{n!s}"),
    "not_owner": ("java.lang.IllegalMonitorStateException",
                  "not monitor owner"),
}

#: Host-side linkage errors: name -> (class name, f-string message).
FAILS: Dict[str, Tuple[str, str]] = {
    "no_field": ("NoSuchFieldError", "{o!r} has no field {name}"),
}

#: The quantum check after an invoke's flush.
SAFEPOINT = """
!sched if thread.cycles_total >= thread.preempt_at:
!sched     SP.preempt(thread)
"""


def resolve_invoke(loader, method, index: int, static: bool):
    """An invoke site's quickened list: ``[resolved, arg slots, name,
    descriptor]`` and the PIC's four slots (``Interpreter._pic_miss``)."""
    ref = method.owner.constant_pool.get_typed(index, CpMethodRef)
    resolved = loader.load(ref.class_name).resolve_method(
        ref.method_name, ref.descriptor)
    if resolved is None:
        raise NoSuchMethodError(
            f"{ref.class_name}.{ref.method_name}{ref.descriptor}")
    if resolved.info.is_static != static:
        kind = "static invoke of instance" if static else \
            "instance invoke of static"
        raise NoSuchMethodError(f"{kind} {resolved.qualified_name}")
    return [resolved, resolved.info.arg_slots, ref.method_name,
            ref.descriptor, None, None, None, None]


#: Names the rendered code reads besides the tier's own locals.
RUNTIME = dict(JArray=JArray, AK_INT=ArrayKind.INT,
               NoSuchFieldError=NoSuchFieldError,
               resolve_invoke=resolve_invoke, _nan=math.nan, _inf=math.inf,
               _ninf=-math.inf, _cs=math.copysign)


# -- the table ----------------------------------------------------------------

_FIELD_NAME = ("q = method.owner.constant_pool.get_typed("
               "operands[pc], CpFieldRef).field_name")
_CLASS_NAME = ("q = method.owner.constant_pool.get_typed("
               "operands[pc], CpClass).name")
_STATIC = """
_ref = method.owner.constant_pool.get_typed(operands[pc], CpFieldRef)
q = loader.load(_ref.class_name).resolve_static_holder(_ref.field_name)
if q is None:
    raise NoSuchFieldError(
        f"{{_ref.class_name}} has no static {{_ref.field_name}}")
q = (q, _ref.field_name)
"""
_STATIC_QUICK = {"statics": Quick("{q}[0].statics", bind="D"),
                 "name": Quick("{q}[1]", bind="N"),
                 "holder": Quick("{q}[0]", bind="H")}
_NAME = {"name": Quick("{q}")}
_A = frozenset("a")


def _poly(op, sym):
    """Arithmetic over ints (wrapped) and floats alike: ``!wrap`` tests
    the result's type only when it is out of int32 range."""
    return Semantics(op, ("a", "b"),
                     f"_r = {{a}} {sym} {{b}}\n!wrap\n=> _r\n")


def _bitwise(op, expr, **kw):
    """On int32 operands the result stays in int32 range: no wrap."""
    return Semantics(op, ("a", "b"), f"=> {expr}", **kw)


#: A shift count is masked to 5 bits; a literal one at translation.
_COUNT = {"count": "({b} & 31)"}
_LITERAL_COUNT = Literal(
    lambda lit: {"count": lit["b"] & 31} if "b" in lit else None)


def _division(op, result, host):
    """Java int division (truncating, ``/ by zero``); host ``/``/``%``
    for floats."""
    return Semantics(op, ("a", "b"), f"""
if type({{a}}) is int and type({{b}}) is int:
    if {{b}} == 0:
        !throw div_zero
    _t = abs({{a}}) // abs({{b}})
    if ({{a}} < 0) != ({{b}} < 0):
        _t = -_t
    _r = {result}
    !wrap
    => _r
else:
    if {{b}} == 0:
        !throw div_zero
    => {{a}} {host} {{b}}
""", literal=(Literal(_nonzero_divisor, f"""
if type({{a}}) is int:
    _t = abs({{a}}) // {{divisor}}
    if {{a}} {{negative}} 0:
        _t = -_t
    _r = {result}
    !wrap
    => _r
else:
    => {{a}} {host} {{b}}
"""),))


def _nonzero_divisor(lit):
    """A non-zero literal divisor: no zero test, its sign known."""
    b = lit.get("b")
    if not b:
        return None
    return {"divisor": abs(b), "negative": "<" if b > 0 else ">="}


def _invoke(op, static, virtual=False):
    dispatch = """
_rc = getattr({recv}, 'jclass', None)
if _rc is None:
    _rc = loader.load('java.lang.Object')
if _rc is {site}[4]:
    _m = {site}[5]
    vm.ic_hits += 1
else:
    _m = interp._pic_miss({site}, _rc)
""" if virtual else "_m = {site}[0]\n"
    null_check = "" if static else """
if {recv} is None:
    !throw null_invoke
"""
    return Semantics(
        op, () if static else ("recv",),
        "!args\n" + null_check.lstrip("\n") + dispatch.lstrip("\n")
        + "!call\n",
        refs=frozenset() if static else frozenset({"recv"}),
        resolve=f"q = resolve_invoke(loader, method, operands[pc], "
                f"{static})",
        quick={"site": Quick("{q}", bind="Q"),
               "name": Quick("{q}[2]", known=lambda pool, index: pool.
                             get_typed(index, CpMethodRef).method_name)},
        flush=Flush.BEFORE, safepoint=True)


_RETURN_EVENT = """
if vm.jvmti.method_exit_enabled:
    vm.jvmti.dispatch_method_exit(thread, method, False)
"""

_ARRAY_LOAD = """
if {arr} is None:
    !throw null_array_load
if {i} < 0:
    !throw index
try:
    => {arr}.data[{i}]
except IndexError:
    !throw index
"""
_ARRAY_STORE = """
if {arr} is None:
    !throw null_array_store
_dt = {arr}.data
if {i} < 0 or {i} >= len(_dt):
    !throw index
if {arr}.kind is AK_INT and type({v}) is int and -2147483648 <= {v} <= 2147483647:
    _dt[{i}] = {v}
else:
    _dt[{i}] = {arr}.normalize({v})
"""


def _entries():
    yield Semantics(Op.NOP)
    yield Semantics(Op.ICONST, body="=> {imm}", forwards=True)
    yield Semantics(Op.LDC, body="""
!flush {string}
=> {value}
""", resolve="""
_e = method.owner.constant_pool.get(operands[pc])
if type(_e) is CpInt or type(_e) is CpFloat:
    q = (False, _e.value)
elif type(_e) is CpString:
    !flush
    q = (True, vm.intern_string(_e.value))
else:
    raise VMError(f"ldc of unsupported constant {{_e!r}}")
""", quick={"string": Quick("{q}[0]"),
            "value": Quick("{q}[1]",
                           bind=lambda q: "S" if q[0] else "F")},
        flush=Flush.ONE_SIDE, forwards=True)
    yield Semantics(Op.ACONST_NULL, body="=> None", forwards=True)

    for op in (Op.ILOAD, Op.ALOAD):
        yield Semantics(op, body="=> {local}", forwards=True)
    for op in (Op.ISTORE, Op.ASTORE):
        yield Semantics(op, ("v",), "{local} = {v}", writes_local=True)
    yield Semantics(Op.IINC, body="""
_r = {local} + {delta}
!wrap
{local} = _r
""", writes_local=True)

    yield Semantics(Op.POP, ("a",))
    yield Semantics(Op.DUP, ("a",), "=> {a}, {a}", forwards=True)
    yield Semantics(Op.DUP_X1, ("a", "b"), "=> {b}, {a}, {b}")
    yield Semantics(Op.SWAP, ("a", "b"), "=> {b}, {a}")

    yield _poly(Op.IADD, "+")
    yield _poly(Op.ISUB, "-")
    yield _poly(Op.IMUL, "*")
    yield _division(Op.IDIV, "_t", "/")
    yield _division(Op.IREM, "{a} - _t * {b}", "%")
    yield Semantics(Op.INEG, ("v",), "_r = -{v}\n!wrap\n=> _r\n")
    yield Semantics(Op.ISHL, ("a", "b"),
                    "_r = {a} << {count}\n!wrap\n=> _r\n",
                    fields=_COUNT, literal=(_LITERAL_COUNT,))
    yield _bitwise(Op.ISHR, "{a} >> {count}", fields=_COUNT,
                   literal=(_LITERAL_COUNT,))
    yield Semantics(Op.IUSHR, ("a", "b"), """
_r = ({a} & 4294967295) >> {count}
if _r > 2147483647:
    _r -= 4294967296
=> _r
""", fields=_COUNT, literal=(
        # shifting a 32-bit value right by 1..31 stays below 2**31
        Literal(lambda lit: {"count": lit["b"] & 31}
                if lit.get("b", 0) & 31 else None,
                "=> ({a} & 4294967295) >> {count}"),
        _LITERAL_COUNT))
    yield _bitwise(Op.IAND, "{a} & {b}")
    yield _bitwise(Op.IOR, "{a} | {b}")
    yield _bitwise(Op.IXOR, "{a} ^ {b}")
    yield Semantics(Op.FDIV, ("a", "b"), """
if {b} == 0:
    if {a} == 0 or {a} != {a}:
        => _nan
    else:
        _r = _cs(1.0, float({a})) * _cs(1.0, float({b}))
        => _inf if _r > 0 else _ninf
else:
    => {a} / {b}
""")
    yield Semantics(Op.I2F, ("v",), "=> float({v})")
    yield Semantics(Op.F2I, ("v",), """
_r = {v}
if -2147483648 < _r < 2147483647:
    => int(_r)
elif _r != _r:
    => 0
elif _r > 0:
    => 2147483647
else:
    => -2147483648
""")
    yield Semantics(Op.FCMP, ("a", "b"),
                    "=> -1 if {a} < {b} else (1 if {a} > {b} else 0)")

    yield Semantics(Op.GOTO)
    for op, cond in ((Op.IFEQ, "=="), (Op.IFNE, "!="), (Op.IFLT, "<"),
                     (Op.IFLE, "<="), (Op.IFGT, ">"), (Op.IFGE, ">=")):
        yield Semantics(op, ("a",), cond=f"{{a}} {cond} 0")
        yield Semantics(Op[op.name.replace("IF", "IF_ICMP")], ("a", "b"),
                        cond=f"{{a}} {cond} {{b}}")
    for op, test in ((Op.IFNULL, "is None"), (Op.IFNONNULL, "is not None")):
        yield Semantics(op, ("a",), cond=f"{{a}} {test}", refs=_A)
    for op, test in ((Op.IF_ACMPEQ, "is"), (Op.IF_ACMPNE, "is not")):
        yield Semantics(op, ("a", "b"), cond=f"{{a}} {test} {{b}}",
                        refs=frozenset("ab"))

    yield Semantics(Op.NEW, body="=> heap.alloc_object({cls})",
                    resolve="q = loader.load(method.owner.constant_pool."
                            "get_typed(operands[pc], CpClass).name)",
                    quick={"cls": Quick("{q}", bind="C")},
                    flush=Flush.BEFORE)
    yield Semantics(Op.GETFIELD, ("o",), """
if {o} is None:
    !throw null_getfield
try:
    => {o}.fields[{name}]
except (KeyError, AttributeError):
    !fail no_field
!san frame.pc = {pc}
!san SAN.read_field(thread, {o}, {name})
""", refs=frozenset({"o"}), resolve=_FIELD_NAME, quick=_NAME)
    yield Semantics(Op.PUTFIELD, ("o", "v"), """
if {o} is None:
    !throw null_putfield
try:
    _f = {o}.fields
except AttributeError:
    !fail no_field
if {name} not in _f:
    !fail no_field
_f[{name}] = {v}
!san frame.pc = {pc}
!san SAN.write_field(thread, {o}, {name})
""", refs=frozenset({"o"}), resolve=_FIELD_NAME, quick=_NAME)
    yield Semantics(Op.GETSTATIC, body="""
=> {statics}[{name}]
!san SAN.read_static(thread, {holder}, {name})
""", resolve=_STATIC, quick=_STATIC_QUICK, flush=Flush.BEFORE)
    yield Semantics(Op.PUTSTATIC, ("v",), """
{statics}[{name}] = {v}
!san SAN.write_static(thread, {holder}, {name})
""", resolve=_STATIC, quick=_STATIC_QUICK, flush=Flush.BEFORE)
    yield Semantics(Op.INSTANCEOF, ("o",), """
if {o} is None:
    => 0
elif isinstance({o}, JArray):
    => {array}
else:
    => 1 if {o}.jclass.is_subclass_of({name}) else 0
""", refs=frozenset({"o"}), resolve=_CLASS_NAME, quick={
        "name": Quick("{q}"),
        "array": Quick("1 if {q} == 'java.lang.Object' else 0")})
    yield Semantics(Op.CHECKCAST, ("o",), """
if {o} is not None and not isinstance({o}, JArray) and not {o}.jclass.is_subclass_of({name}):
    !throw cast
=> {o}
""", refs=frozenset({"o"}), resolve=_CLASS_NAME, quick=_NAME)

    yield Semantics(Op.NEWARRAY, ("n",), """
if {n} < 0:
    !throw negative_size
=> heap.alloc_array({kind}, {n})
""")
    for op in (Op.IALOAD, Op.AALOAD):
        yield Semantics(op, ("arr", "i"), _ARRAY_LOAD,
                        refs=frozenset({"arr"}))
    for op in (Op.IASTORE, Op.AASTORE):
        yield Semantics(op, ("arr", "i", "v"), _ARRAY_STORE,
                        refs=frozenset({"arr"}))
    yield Semantics(Op.ARRAYLENGTH, ("arr",), """
if {arr} is None:
    !throw null_arraylength
=> len({arr}.data)
""", refs=frozenset({"arr"}))

    yield _invoke(Op.INVOKESTATIC, static=True)
    yield _invoke(Op.INVOKEVIRTUAL, static=False, virtual=True)
    yield _invoke(Op.INVOKESPECIAL, static=False)
    yield Semantics(Op.RETURN, body=_RETURN_EVENT + "!return\n",
                    flush=Flush.BEFORE)
    for op in (Op.IRETURN, Op.ARETURN):
        yield Semantics(op, ("v",), _RETURN_EVENT + "!return {v}\n",
                        flush=Flush.BEFORE)

    yield Semantics(Op.ATHROW, ("e",), """
if {e} is None:
    !throw null_throw
!raise {e}
""", refs=frozenset({"e"}))
    yield Semantics(Op.MONITORENTER, ("o",), """
_o = {o}
if _o is None:
    !throw null_monitorenter
if _o.monitor_owner is None or _o.monitor_owner is thread:
    _o.monitor_owner = thread
    _o.monitor_count += 1
    !san SAN.on_acquire(thread, _o)
else:
    !sched !flush
    !sched SP.acquire_contended(thread, _o)
    !nosched raise interp._sequential_monitor_deadlock(thread, _o)
""", flush=Flush.ONE_SIDE)
    yield Semantics(Op.MONITOREXIT, ("o",), """
_o = {o}
if _o is None:
    !throw null_monitorexit
if _o.monitor_owner is not thread or _o.monitor_count <= 0:
    !throw not_owner
_o.monitor_count -= 1
if _o.monitor_count == 0:
    _o.monitor_owner = None
    !san SAN.on_release(thread, _o)
    !sched if _o.monitor_waiters:
    !sched     SP.release_monitor(thread, _o)
""")


#: One entry per opcode.
SEMANTICS: Dict[Op, Semantics] = {entry.op: entry for entry in _entries()}


# -- rendering ----------------------------------------------------------------

#: One prepared line: plain code (``kind`` None) or a directive left
#: for the backend (``result``, ``throw``, ``raise``, ``flush``,
#: ``args``, ``call``, ``return``).
Line = namedtuple("Line", "depth text kind args", defaults=(None, ()))


@functools.lru_cache(maxsize=None)
def parse(fragment: str) -> Tuple[Tuple[int, str], ...]:
    """``(depth, text)`` for each line of a fragment (4-space indents)."""
    out = []
    for raw in textwrap.dedent(fragment).strip("\n").splitlines():
        text = raw.lstrip(" ")
        if text:
            out.append(((len(raw) - len(text)) // 4, text))
    return tuple(out)


_GATES = ("!san", "!sched", "!nosched")


@functools.lru_cache(maxsize=None)
def _compile(fragment: str) -> tuple:
    """A fragment's lines as ``(depth, kind, args)`` items, once per
    process: ``kind`` is None for plain code, a directive name, or
    ``gate`` (``args``: the tag and the run of items it guards)."""
    lines = parse(fragment)
    items = []
    i = 0
    while i < len(lines):
        depth, text = lines[i]
        tag = text.split(" ", 1)[0]
        if tag in _GATES:
            run = []
            while i < len(lines) and lines[i][0] == depth and \
                    lines[i][1].split(" ", 1)[0] == tag:
                rest = lines[i][1][len(tag) + 1:]
                inner = rest.lstrip(" ")
                run.append(((len(rest) - len(inner)) // 4, inner))
                i += 1
            body = "\n".join("    " * d + t for d, t in run)
            items.append((depth, "gate", (tag, _compile(body))))
            continue
        i += 1
        if text.startswith("=> "):
            items.append((depth, "result", tuple(split_results(text[3:]))))
        elif text == "!wrap":
            # int op int is the only operation giving an int, so an
            # out-of-range float result fails the type test unwrapped
            items.append((depth, None, "if (_r > 2147483647 or "
                                       "_r < -2147483648) and "
                                       "type(_r) is int:"))
            items.append((depth + 1, None, "_r = (_r + 2147483648 & "
                                           "4294967295) - 2147483648"))
        elif text.startswith("!"):
            name, _, arg = text[1:].partition(" ")
            items.append((depth, name, arg))
        else:
            items.append((depth, None, text))
    return tuple(items)


def split_results(text: str) -> List[str]:
    """Split ``e1, e2`` at top-level commas."""
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
        elif ch == "," and depth == 0:
            parts.append(text[start:i].strip())
            start = i + 1
    parts.append(text[start:].strip())
    return parts


def _code(value) -> str:
    return repr(value.value) if isinstance(value, Lit) else value


def message(fmt: str, lookup, fstring: bool = False) -> str:
    """A message as Python source: a Java exception's as one
    expression whose literal text and translation-time values fold into
    one string literal, a host error's (``fstring``) as an f-string."""
    parts, text = [], ""
    for literal, name, _, conversion in Formatter().parse(fmt):
        text += literal
        if name is None:
            continue
        root, _, attr = name.partition(".")
        value = lookup(root)
        if isinstance(value, Lit) and not attr:
            text += str(value.value)
            continue
        expr = _code(value) + (f".{attr}" if attr else "")
        if fstring:
            text += "{" + expr + (f"!{conversion}" if conversion else "") \
                + "}"
            continue
        parts += [repr(text)] if text else []
        parts.append(f"str({expr})" if conversion == "s" else expr)
        text = ""
    if fstring:
        return f'f"{text}"'
    return " + ".join(parts + ([repr(text)] if text else []))


def literal_of(expr: str) -> Optional[int]:
    """The value of an int-literal operand expression, else None."""
    return int(expr) if expr[0] == "-" or expr[0].isdigit() else None


@functools.lru_cache(maxsize=None)
def _reads(fragment: str) -> Tuple[str, ...]:
    """The fields a fragment reads, once per read, its messages'
    included."""
    texts = [fragment] + [(THROWS.get(ref) or FAILS[ref])[1] for ref in
                          re.findall(r"!(?:throw|fail) (\w+)", fragment)]
    return tuple(name.partition(".")[0] for text in texts
                 for _, name, _, _ in Formatter().parse(text) if name)


@functools.lru_cache(maxsize=None)
def _names(fragment: str) -> Tuple[str, ...]:
    return tuple(dict.fromkeys(_reads(fragment)))


def prepare(entry: Semantics, backend, body: Optional[str] = None
            ) -> Tuple[Line, ...]:
    """Render ``entry``'s body (or ``body``) for ``backend`` into
    lines: fields substituted, gates resolved, directives the backend
    owns left as :class:`Line` kinds.

    ``backend`` provides ``value(name)`` (an expression string or a
    :class:`Lit`), ``literals()`` (int-literal operands by name) and
    ``gate(kind)`` (True or False to keep or drop a gated line, or a
    run-time test).  The rendering is memoized per process on what it
    reads, as template ``compile()`` is on the source."""
    lookup = backend.value
    extra = {name: template.format_map({n: _code(lookup(n)) for n in
                                         _names(template)})
             for name, template in entry.fields.items()}
    if body is None:
        body = entry.body
        literals = backend.literals() if entry.literal else None
        for spec in entry.literal if literals else ():
            found = spec.when(literals)
            if found is not None:
                extra.update(found)
                body = spec.body or body
                break
    names = _names(body)
    if extra:
        names = tuple([n for n in names if n not in extra])
    return _prepared(body, names, tuple([lookup(n) for n in names]),
                     tuple(extra.items()), backend.gate("san"),
                     backend.gate("sched"))


@functools.lru_cache(maxsize=8192)
def _prepared(body, names, values, extra, san, sched) -> Tuple[Line, ...]:
    raw = dict(zip(names, values))
    fields = {name: _code(value) for name, value in raw.items()}
    fields.update((name, value if isinstance(value, str) else repr(value))
                  for name, value in extra)
    out: List[Line] = []
    _render(_compile(body), 0, fields, raw.__getitem__,
            {"san": san, "sched": sched}, out)
    return tuple(out)


def _render(items, base: int, fields, lookup, gates, out) -> None:
    for depth, kind, args in items:
        depth += base
        if kind == "gate":
            tag, run = args
            gate = gates["san" if tag == "!san" else "sched"]
            if isinstance(gate, bool):
                if gate == (tag != "!nosched"):
                    _render(run, depth, fields, lookup, gates, out)
            else:
                # a !nosched run follows its !sched run
                out.append(Line(depth, f"if {gate}:" if tag != "!nosched"
                                else "else:"))
                _render(run, depth + 1, fields, lookup, gates, out)
            continue
        if kind is None:
            out.append(Line(depth, args.format_map(fields)))
        elif kind == "result":
            out.append(Line(depth, "", "result", (
                args, tuple(token.format_map(fields) for token in args))))
        elif kind == "fail":
            cls, fmt = FAILS[args]
            out.append(Line(depth, f"raise {cls}("
                                   f"{message(fmt, lookup, True)})"))
        elif kind == "throw":
            cls, fmt = THROWS[args]
            out.append(Line(depth, "", "throw",
                            (cls, message(fmt, lookup))))
        elif kind in ("raise", "return"):
            out.append(Line(depth, "", kind, (
                args.format_map(fields) if args else None,)))
        elif kind == "flush" and args:
            # on the side a field's test selects: decided here when
            # the field is known at translation
            test = args.format_map(fields)
            if test not in ("True", "False"):
                out.append(Line(depth, f"if {test}:"))
                out.append(Line(depth + 1, "", "flush"))
            elif test == "True":
                out.append(Line(depth, "", "flush"))
        else:  # flush, args, call
            out.append(Line(depth, "", kind))


def uses(entry: Semantics, name: str) -> int:
    """How often ``entry`` reads field ``name``."""
    return _reads(entry.body + (entry.cond or "")
                  + "".join(entry.fields.values())).count(name)
