"""Structural bytecode verifier.

Checks, per method:

* local indices stay below ``max_locals``;
* return opcodes match the method descriptor (value vs ``void``);
* the code partitions into basic blocks (:func:`repro.bytecode.flow.
  build_cfg`): branch targets and exception-table ranges are valid
  instruction indices and control cannot fall off the end of the code;
* operand-stack depth is consistent (:meth:`repro.bytecode.flow.CFG.
  stack_depths`): every instruction has enough operands and all paths
  reaching an instruction agree on stack depth (exception handlers
  start at depth 1 — the thrown object).

Types are not tracked here (the typed abstract-interpretation pass lives
in :mod:`repro.analysis.typed_verifier`); this is a stack-discipline
verifier in the spirit of the JVM's, scaled to the ISA.  Every failure
raises a structured :class:`~repro.errors.VerifyError` naming the owning
class, method, instruction index, and mnemonic where known.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.bytecode.flow import CFG, build_cfg
from repro.bytecode.opcodes import Op, OperandKind
from repro.errors import VerifyError


def verify_method(method, constant_pool,
                  class_name: Optional[str] = None) -> int:
    """Verify one method; returns the maximum operand-stack depth.

    ``method`` is a :class:`~repro.classfile.members.MethodInfo` whose
    branch operands are already resolved; ``constant_pool`` is the owning
    class's pool and ``class_name`` the owning class (named in
    diagnostics when given).  Raises :class:`~repro.errors.VerifyError`
    on failure.
    """
    return verify_method_cfg(method, constant_pool, class_name)[0]


def verify_method_cfg(method, constant_pool,
                      class_name: Optional[str] = None
                      ) -> Tuple[int, Optional[CFG]]:
    """:func:`verify_method`, also returning the CFG it verified (None
    for a native method) for a later pass to reuse."""
    where = f"{method.name}{method.descriptor}"

    def fail(reason, pc=None, mnemonic=None):
        raise VerifyError(reason, class_name=class_name, method=where,
                          pc=pc, mnemonic=mnemonic)

    if method.is_native:
        return 0, None
    for pc, ins in enumerate(method.code):
        mnemonic = ins.spec.mnemonic
        if ins.spec.operand is OperandKind.LOCAL and \
                ins.operand >= method.max_locals:
            fail(f"local index {ins.operand} >= max_locals "
                 f"{method.max_locals}", pc=pc, mnemonic=mnemonic)
        if ins.spec.operand is OperandKind.IINC and \
                ins.operand[0] >= method.max_locals:
            fail(f"iinc index {ins.operand[0]} >= max_locals "
                 f"{method.max_locals}", pc=pc, mnemonic=mnemonic)
        if ins.op in (Op.IRETURN, Op.ARETURN) and not method.returns_value:
            fail("value return from void method", pc=pc, mnemonic=mnemonic)
        if ins.op is Op.RETURN and method.returns_value:
            fail("void return from value-returning method", pc=pc,
                 mnemonic=mnemonic)
    try:
        cfg = build_cfg(method.code, method.exception_table)
        return cfg.stack_depths(constant_pool)[2], cfg
    except VerifyError as exc:
        raise exc.with_context(class_name=class_name, method=where) \
            from None


def verify_class(cf) -> int:
    """Verify every non-native method of a class file; returns the
    number of methods checked."""
    checked = 0
    for method in cf.methods:
        verify_method(method, cf.constant_pool, class_name=cf.name)
        checked += 1
    return checked
