"""Typed bytecode verifier: abstract interpretation over a type lattice.

Upgrades the depth-only structural pass: every local slot and operand
stack slot carries an abstract type, merged by fixpoint at join points
and exception handlers.  The lattice reflects the ISA's documented
simplifications (one slot per value, ``I``-family arithmetic polymorphic
over ints and floats, untyped fields)::

            CONFLICT  (ref on one path, numeric on another — unusable)
            /      \\
          NUM      REF      ANY  (statically unknown: field loads;
         /   \\      |            accepted by every check)
       INT  FLOAT  null       UNINIT  (locals only; use is an error)

* ``INT ⊔ FLOAT = NUM`` — legal everywhere a number is, matching the
  polymorphic interpreter.
* ``ANY`` absorbs: values whose type the class file does not declare
  (``getfield``/``getstatic``/``iaload`` results) are dynamically
  checked by the interpreter, so the verifier stays permissive — by
  design it never rejects a class the interpreter executes.
* ``REF ⊔ numeric = CONFLICT`` and any *use* of CONFLICT or UNINIT is an
  error: type confusion and uninitialized-local reads are exactly the
  bugs a rewriter (instrumentation, JIT) can introduce.
* Definite vs. possible assignment: UNINIT means *no* path assigned the
  local (use is an error); ``UNINIT ⊔ assigned = MAYBE_UNINIT`` — some
  path misses the assignment (use is a warning, since real loop idioms
  like ``for (...) { x = ...; } use(x)`` are conservatively
  unprovable).

Findings carry severity, class, method, and instruction index.
:func:`typed_verify_class` is the gating entry point (first
error-severity finding raises :class:`~repro.errors.VerifyError` — the
``--verify typed`` classloader mode); :func:`analyze_class_types`
returns the full report for ``repro analyze``.  :func:`typed_report`
makes that report once per process per class bytes, for both.
"""

from __future__ import annotations

import enum
import functools
from typing import Dict, List, Optional, Tuple

from repro.analysis.findings import AnalysisReport, Finding, Severity
from repro.bytecode.flow import build_cfg
from repro.bytecode.opcodes import INVOKE_OPS, Op
from repro.bytecode.verifier import verify_method_cfg
from repro.classfile.constant_pool import (
    CpFloat,
    CpInt,
    CpMethodRef,
    CpString,
)
from repro.classfile.members import parse_descriptor
from repro.classfile.serializer import shared_class
from repro.errors import ClassFileError, ConstantPoolError, VerifyError


class VType(enum.Enum):
    """Abstract value types (one operand/local slot each)."""

    INT = "int"
    FLOAT = "float"
    NUM = "num"            # int-or-float (join of the two)
    REF = "ref"
    ANY = "any"            # statically unknown, dynamically checked
    UNINIT = "uninit"      # local written on *no* path (definite)
    MAYBE_UNINIT = "maybe-uninit"  # local unwritten on *some* path
    CONFLICT = "conflict"  # ref on one path, numeric on another


_NUMERIC = (VType.INT, VType.FLOAT, VType.NUM, VType.ANY)
_REFLIKE = (VType.REF, VType.ANY)


def join_types(a: VType, b: VType) -> VType:
    """Least upper bound of two slot types."""
    if a is b:
        return a
    if VType.UNINIT in (a, b) or VType.MAYBE_UNINIT in (a, b):
        if VType.CONFLICT in (a, b):
            return VType.CONFLICT
        return VType.MAYBE_UNINIT  # assigned on one path, not the other
    if VType.CONFLICT in (a, b):
        return VType.CONFLICT
    if VType.ANY in (a, b):
        return VType.ANY
    if a in _NUMERIC and b in _NUMERIC:
        return VType.NUM
    return VType.CONFLICT  # one side numeric, the other a reference


def type_for_descriptor(type_desc: str) -> VType:
    """Abstract type of one descriptor type (param or non-void return)."""
    if type_desc[0] in "L[":
        return VType.REF
    if type_desc == "F":
        return VType.FLOAT
    return VType.INT  # I and the accepted JVM-flavoured primitives


State = Tuple[Tuple[VType, ...], Tuple[VType, ...]]  # (locals, stack)


class _Abort(Exception):
    """Stops interpreting a block after an unrecoverable finding."""


# Opcode groups sharing a transfer rule ---------------------------------------

_BINARY_ALU = frozenset({
    Op.IADD, Op.ISUB, Op.IMUL, Op.IDIV, Op.IREM, Op.ISHL, Op.ISHR,
    Op.IUSHR, Op.IAND, Op.IOR, Op.IXOR,
})
_IF_NUM1 = frozenset({Op.IFEQ, Op.IFNE, Op.IFLT, Op.IFLE, Op.IFGT,
                      Op.IFGE})
_IF_NUM2 = frozenset({Op.IF_ICMPEQ, Op.IF_ICMPNE, Op.IF_ICMPLT,
                      Op.IF_ICMPLE, Op.IF_ICMPGT, Op.IF_ICMPGE})
_IF_REF1 = frozenset({Op.IFNULL, Op.IFNONNULL})
_IF_REF2 = frozenset({Op.IF_ACMPEQ, Op.IF_ACMPNE})


class TypedMethodVerifier:
    """Abstract interpretation of one method; collects findings."""

    def __init__(self, method, constant_pool, class_name: str, cfg=None):
        self.method = method
        self.pool = constant_pool
        self.class_name = class_name
        self.cfg = cfg  # the structural verifier's, when it ran first
        self.where = f"{method.name}{method.descriptor}"
        self.findings: Dict[tuple, Finding] = {}
        self._pc = 0

    # -- findings --------------------------------------------------------------

    def _report(self, severity: Severity, rule: str, message: str,
                pc: Optional[int] = None) -> None:
        pc = self._pc if pc is None else pc
        key = (rule, pc, message)
        if key not in self.findings:
            self.findings[key] = Finding(
                severity=severity, rule=rule, class_name=self.class_name,
                method=self.where, message=message, pc=pc)

    def _error(self, rule: str, message: str,
               pc: Optional[int] = None) -> None:
        self._report(Severity.ERROR, rule, message, pc=pc)

    # -- type checks -----------------------------------------------------------

    def _describe(self, t: VType) -> str:
        return t.value

    def _check_num(self, t: VType, what: str) -> None:
        if t in _NUMERIC:
            return
        if not self._check_usable(t, what):
            self._error("type-confusion",
                        f"{what} is a reference, expected a number")

    def _check_ref(self, t: VType, what: str) -> None:
        if t in _REFLIKE:
            return
        if not self._check_usable(t, what):
            self._error("type-confusion",
                        f"{what} is a {self._describe(t)}, expected a "
                        f"reference")

    def _check_usable(self, t: VType, what: str) -> bool:
        """Report UNINIT/MAYBE_UNINIT/CONFLICT use; True when reported."""
        if t is VType.UNINIT:
            self._error("uninitialized-value",
                        f"{what} is used before assignment")
        elif t is VType.MAYBE_UNINIT:
            self._report(Severity.WARNING, "uninitialized-value",
                         f"{what} may be uninitialized on some path")
        elif t is VType.CONFLICT:
            self._error("type-confusion",
                        f"{what} merges reference and numeric values")
        else:
            return False
        return True

    # -- stack helpers ---------------------------------------------------------

    def _pop(self, stack: List[VType], what: str) -> VType:
        if not stack:
            self._error("stack-underflow",
                        f"operand stack empty, needed {what}")
            raise _Abort()
        return stack.pop()

    def _pop_num(self, stack: List[VType], what: str) -> VType:
        t = self._pop(stack, what)
        self._check_num(t, what)
        return t

    def _pop_ref(self, stack: List[VType], what: str) -> VType:
        t = self._pop(stack, what)
        self._check_ref(t, what)
        return t

    # -- entry state -----------------------------------------------------------

    def entry_state(self) -> State:
        method = self.method
        locals_: List[VType] = []
        if not method.is_static:
            locals_.append(VType.REF)  # receiver
        params, _ = parse_descriptor(method.descriptor)
        locals_.extend(type_for_descriptor(p) for p in params)
        while len(locals_) < method.max_locals:
            locals_.append(VType.UNINIT)
        return tuple(locals_), ()

    # -- the transfer function -------------------------------------------------

    def step(self, ins, locals_: List[VType],
             stack: List[VType]) -> None:
        """Apply one instruction's effect in place (may record
        findings; raises :class:`_Abort` on underflow)."""
        op = ins.op

        if op is Op.NOP:
            return
        if op is Op.ICONST:
            stack.append(VType.INT)
        elif op is Op.LDC:
            stack.append(self._ldc_type(ins.operand))
        elif op is Op.ACONST_NULL:
            stack.append(VType.REF)

        elif op is Op.ILOAD:
            t = locals_[ins.operand]
            self._check_num(t, f"local {ins.operand}")
            stack.append(t if t in _NUMERIC else VType.ANY)
        elif op is Op.ALOAD:
            t = locals_[ins.operand]
            self._check_ref(t, f"local {ins.operand}")
            stack.append(t if t in _REFLIKE else VType.ANY)
        elif op is Op.ISTORE:
            locals_[ins.operand] = self._pop_num(stack, "istore value")
        elif op is Op.ASTORE:
            locals_[ins.operand] = self._pop_ref(stack, "astore value")
        elif op is Op.IINC:
            index = ins.operand[0]
            self._check_num(locals_[index], f"local {index}")
            if locals_[index] not in _NUMERIC:
                locals_[index] = VType.ANY  # recover, keep analyzing

        elif op is Op.POP:
            self._pop(stack, "pop operand")
        elif op is Op.DUP:
            t = self._pop(stack, "dup operand")
            stack.extend((t, t))
        elif op is Op.DUP_X1:
            b = self._pop(stack, "dup_x1 operand")
            a = self._pop(stack, "dup_x1 operand")
            stack.extend((b, a, b))
        elif op is Op.SWAP:
            b = self._pop(stack, "swap operand")
            a = self._pop(stack, "swap operand")
            stack.extend((b, a))

        elif op in _BINARY_ALU:
            b = self._pop_num(stack, "right operand")
            a = self._pop_num(stack, "left operand")
            if a is VType.INT and b is VType.INT:
                stack.append(VType.INT)
            elif a is VType.FLOAT and b is VType.FLOAT:
                stack.append(VType.FLOAT)
            else:
                stack.append(VType.NUM)
        elif op is Op.INEG:
            t = self._pop_num(stack, "ineg operand")
            stack.append(t if t in (VType.INT, VType.FLOAT) else VType.NUM)
        elif op is Op.FDIV:
            self._pop_num(stack, "divisor")
            self._pop_num(stack, "dividend")
            stack.append(VType.FLOAT)
        elif op is Op.I2F:
            self._pop_num(stack, "i2f operand")
            stack.append(VType.FLOAT)
        elif op is Op.F2I:
            self._pop_num(stack, "f2i operand")
            stack.append(VType.INT)
        elif op is Op.FCMP:
            self._pop_num(stack, "fcmp right")
            self._pop_num(stack, "fcmp left")
            stack.append(VType.INT)

        elif op is Op.GOTO:
            pass
        elif op in _IF_NUM1:
            self._pop_num(stack, "branch condition")
        elif op in _IF_NUM2:
            self._pop_num(stack, "branch right operand")
            self._pop_num(stack, "branch left operand")
        elif op in _IF_REF1:
            self._pop_ref(stack, "branch condition")
        elif op in _IF_REF2:
            self._pop_ref(stack, "branch right operand")
            self._pop_ref(stack, "branch left operand")

        elif op is Op.NEW:
            stack.append(VType.REF)
        elif op is Op.GETFIELD:
            self._pop_ref(stack, "getfield receiver")
            stack.append(VType.ANY)  # field types are not declared
        elif op is Op.PUTFIELD:
            value = self._pop(stack, "putfield value")
            self._check_usable(value, "putfield value")
            self._pop_ref(stack, "putfield receiver")
        elif op is Op.GETSTATIC:
            stack.append(VType.ANY)
        elif op is Op.PUTSTATIC:
            value = self._pop(stack, "putstatic value")
            self._check_usable(value, "putstatic value")
        elif op is Op.INSTANCEOF:
            self._pop_ref(stack, "instanceof operand")
            stack.append(VType.INT)
        elif op is Op.CHECKCAST:
            self._pop_ref(stack, "checkcast operand")
            stack.append(VType.REF)

        elif op is Op.NEWARRAY:
            self._pop_num(stack, "array length")
            stack.append(VType.REF)
        elif op is Op.IALOAD:
            self._pop_num(stack, "array index")
            self._pop_ref(stack, "array reference")
            stack.append(VType.NUM)  # element kind is dynamic
        elif op is Op.IASTORE:
            self._pop_num(stack, "array element")
            self._pop_num(stack, "array index")
            self._pop_ref(stack, "array reference")
        elif op is Op.AALOAD:
            self._pop_num(stack, "array index")
            self._pop_ref(stack, "array reference")
            stack.append(VType.REF)
        elif op is Op.AASTORE:
            self._pop_ref(stack, "array element")
            self._pop_num(stack, "array index")
            self._pop_ref(stack, "array reference")
        elif op is Op.ARRAYLENGTH:
            self._pop_ref(stack, "array reference")
            stack.append(VType.INT)

        elif op in INVOKE_OPS:
            self._invoke(op, ins.operand, stack)

        elif op is Op.RETURN:
            pass
        elif op is Op.IRETURN:
            self._pop_num(stack, "return value")
        elif op is Op.ARETURN:
            self._pop_ref(stack, "return value")

        elif op is Op.ATHROW:
            self._pop_ref(stack, "thrown object")
        elif op in (Op.MONITORENTER, Op.MONITOREXIT):
            self._pop_ref(stack, "monitor object")
        else:  # pragma: no cover - the ISA is fully enumerated above
            self._error("unknown-opcode", f"no transfer rule for {op!r}")
            raise _Abort()

    def _ldc_type(self, index) -> VType:
        try:
            entry = self.pool.get(index)
        except ConstantPoolError as exc:
            self._error("bad-constant", str(exc))
            return VType.ANY
        if isinstance(entry, CpInt):
            return VType.INT
        if isinstance(entry, CpFloat):
            return VType.FLOAT
        if isinstance(entry, CpString):
            return VType.REF
        self._error("bad-constant",
                    f"ldc of non-loadable constant {entry!r}")
        return VType.ANY

    def _invoke(self, op, cp_index, stack: List[VType]) -> None:
        try:
            entry = self.pool.get_typed(cp_index, CpMethodRef)
            params, ret = parse_descriptor(entry.descriptor)
        except (ConstantPoolError, ClassFileError) as exc:
            self._error("bad-constant", str(exc))
            raise _Abort()
        for param in reversed(params):
            expected = type_for_descriptor(param)
            what = (f"argument of type {param} to "
                    f"{entry.class_name}.{entry.method_name}")
            if expected is VType.REF:
                self._pop_ref(stack, what)
            else:
                self._pop_num(stack, what)
        if op in (Op.INVOKEVIRTUAL, Op.INVOKESPECIAL):
            self._pop_ref(stack,
                          f"receiver of {entry.class_name}."
                          f"{entry.method_name}")
        if ret != "V":
            stack.append(type_for_descriptor(ret))

    # -- the fixpoint ----------------------------------------------------------

    def run(self) -> List[Finding]:
        method = self.method
        if method.is_native or not method.code:
            return []
        code = method.code
        cfg = self.cfg or build_cfg(code, method.exception_table)

        in_states: Dict[int, State] = {0: self.entry_state()}
        worklist = [0]

        def merge_into(block_index: int, locals_: Tuple[VType, ...],
                       stack: Tuple[VType, ...], from_pc: int) -> None:
            known = in_states.get(block_index)
            if known is None:
                in_states[block_index] = (locals_, stack)
                worklist.append(block_index)
                return
            known_locals, known_stack = known
            if len(known_stack) != len(stack):
                self._error(
                    "stack-merge",
                    f"inconsistent stack depth at join "
                    f"({len(known_stack)} vs {len(stack)})", pc=from_pc)
                return
            merged_locals = tuple(map(join_types, known_locals, locals_))
            merged_stack = tuple(map(join_types, known_stack, stack))
            if (merged_locals, merged_stack) != known:
                in_states[block_index] = (merged_locals, merged_stack)
                if block_index not in worklist:
                    worklist.append(block_index)

        handler_block_of = {
            entry.handler: cfg.block_of(entry.handler).index
            for entry in method.exception_table}

        iterations = 0
        limit = 50 * max(1, len(code)) * max(1, len(cfg.blocks))
        while worklist:
            iterations += 1
            if iterations > limit:  # pragma: no cover - safety valve
                self._error("fixpoint-divergence",
                            "typed dataflow did not converge")
                break
            block_index = worklist.pop()
            block = cfg.blocks[block_index]
            locals_t, stack_t = in_states[block_index]
            locals_ = list(locals_t)
            stack = list(stack_t)
            aborted = False
            for pc in block.pcs:
                self._pc = pc
                # exception edge: the handler sees this instruction's
                # locals and a one-element stack (the thrown object)
                for entry in cfg.handlers_covering(pc):
                    merge_into(handler_block_of[entry.handler],
                               tuple(locals_), (VType.REF,), pc)
                try:
                    self.step(code[pc], locals_, stack)
                except _Abort:
                    aborted = True
                    break
            if aborted:
                continue
            last_pc = block.end - 1
            for successor in block.successors:
                merge_into(successor, tuple(locals_), tuple(stack),
                           last_pc)

        for block in cfg.unreachable_blocks():
            self._report(Severity.WARNING, "unreachable-code",
                         f"instructions {block.start}..{block.end - 1} "
                         f"are unreachable", pc=block.start)

        self._check_monitor_bracketing(cfg, code)

        return list(self.findings.values())

    # -- monitor bracketing ----------------------------------------------------

    def _check_monitor_bracketing(self, cfg, code) -> None:
        """Structural MONITORENTER/MONITOREXIT balance: along every
        normal path the net monitor depth must reach zero at each
        return, never go negative, and agree at joins.  Exceptional
        exits (ATHROW, exception edges) are exempt — the runtime force-
        releases monitors on unwind.  Violations are warnings: the
        interpreter raises IllegalMonitorStateException dynamically,
        but an unbalanced method is a lock-leak bug worth flagging
        before it ever runs."""
        depth_in: Dict[int, int] = {0: 0}
        worklist = [0]
        while worklist:
            index = worklist.pop()
            depth = depth_in[index]
            block = cfg.blocks[index]
            for pc in block.pcs:
                op = code[pc].op
                if op is Op.MONITORENTER:
                    depth += 1
                elif op is Op.MONITOREXIT:
                    depth -= 1
                    if depth < 0:
                        self._report(
                            Severity.WARNING, "monitor-bracketing",
                            "monitorexit without a matching "
                            "monitorenter on some path", pc=pc)
                        depth = 0  # recover, keep checking the rest
                elif op in (Op.RETURN, Op.IRETURN, Op.ARETURN):
                    if depth != 0:
                        self._report(
                            Severity.WARNING, "monitor-bracketing",
                            f"method returns holding {depth} "
                            f"monitor(s)", pc=pc)
            for successor in block.successors:
                known = depth_in.get(successor)
                if known is None:
                    depth_in[successor] = depth
                    worklist.append(successor)
                elif known != depth:
                    self._report(
                        Severity.WARNING, "monitor-bracketing",
                        f"inconsistent monitor depth at join "
                        f"({known} vs {depth})",
                        pc=cfg.blocks[successor].start)


# -- public entry points -------------------------------------------------------


def analyze_method_types(method, constant_pool, class_name: str,
                         cfg=None) -> List[Finding]:
    """Typed findings for one method (empty list when clean); ``cfg``
    is its CFG when the caller already built it."""
    return TypedMethodVerifier(method, constant_pool, class_name,
                               cfg).run()


def analyze_class_types(cf) -> AnalysisReport:
    """Full typed report for one class file.

    The stack-discipline verifier runs first (its failures become error
    findings), so one call covers both layers.
    """
    report = AnalysisReport(classes_analyzed=1)
    for method in cf.methods:
        report.methods_analyzed += 1
        try:
            _, cfg = verify_method_cfg(method, cf.constant_pool,
                                       class_name=cf.name)
        except VerifyError as exc:
            report.add(Finding(
                severity=Severity.ERROR, rule="structural",
                class_name=cf.name,
                method=f"{method.name}{method.descriptor}",
                message=exc.reason, pc=exc.pc, mnemonic=exc.mnemonic))
            continue  # typed pass assumes structural soundness
        report.extend(analyze_method_types(method, cf.constant_pool,
                                           cf.name, cfg))
    return report


#: Bound on the typed-report memo, in distinct class bytes; as the
#: parse memo's, it only caps an unbounded stream.
_REPORT_MEMO_SIZE = 1024


class _Rejected(Exception):
    """A report with an error finding, kept out of the memo."""

    def __init__(self, report: AnalysisReport):
        super().__init__()
        self.report = report


def typed_report(data: bytes) -> AnalysisReport:
    """:func:`analyze_class_types` of the class ``data``, once per
    process per distinct bytes: the ``--verify typed`` loaders and
    ``analyze_archives`` share it, and must not change it.  A report
    with an error finding is not memoized, so every caller re-analyzes
    a bad class and raises or reports its own error."""
    try:
        return _clean_report(data)
    except _Rejected as rejected:
        return rejected.report


@functools.lru_cache(maxsize=_REPORT_MEMO_SIZE)
def _clean_report(data: bytes) -> AnalysisReport:
    report = analyze_class_types(shared_class(data))
    if report.errors:
        raise _Rejected(report)
    return report


def typed_verify_class(cls) -> int:
    """Gate one class on the typed verifier (the ``--verify typed``
    classloader mode): raises :class:`~repro.errors.VerifyError` on the
    first error-severity finding, returns the number of methods
    verified otherwise.  Warnings (e.g. unreachable code) do not gate.
    ``cls`` is a parsed class, or its bytes, whose report then comes
    from :func:`typed_report`.
    """
    report = typed_report(cls) if isinstance(cls, bytes) \
        else analyze_class_types(cls)
    for finding in report.errors:
        raise VerifyError(finding.message, class_name=finding.class_name,
                          method=finding.method, pc=finding.pc,
                          mnemonic=finding.mnemonic)
    return report.methods_analyzed
