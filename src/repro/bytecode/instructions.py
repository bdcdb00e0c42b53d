"""Instruction representation.

An :class:`Instruction` is one decoded opcode plus its operand.  Before
assembly, branch operands are label *names* (strings); the assembler
resolves them to integer instruction indices (the interpreter addresses
code by instruction index, not byte offset — the serializer re-encodes
indices as it writes code attributes).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.bytecode.opcodes import Op, OperandKind, SPECS
from repro.errors import BytecodeError


@dataclass
class Instruction:
    """One instruction: ``op`` plus an operand whose meaning depends on
    the opcode's :class:`~repro.bytecode.opcodes.OperandKind`.

    * ``IMM`` — int immediate
    * ``LOCAL`` — int local index
    * ``CP`` — int constant-pool index
    * ``LABEL`` — str label (unresolved) or int target index (resolved)
    * ``ARRAY_KIND`` — :class:`~repro.bytecode.opcodes.ArrayKind`
    * ``IINC`` — ``(local_index, delta)`` tuple
    * ``NONE`` — must be ``None``

    An instruction carries no run-time state: what a VM resolves at a
    site (quickening) lives in that VM's ``LoadedMethod.quick``, so one
    parsed class is shared read-only by every VM in the process.
    """

    op: Op
    operand: Any = None

    def __post_init__(self):
        spec = SPECS.get(self.op)
        if spec is None:
            raise BytecodeError(f"unknown opcode {self.op!r}")
        kind = spec.operand
        if kind is OperandKind.NONE and self.operand is not None:
            raise BytecodeError(
                f"{spec.mnemonic} takes no operand, got {self.operand!r}")
        if kind is not OperandKind.NONE and self.operand is None:
            raise BytecodeError(f"{spec.mnemonic} requires an operand")
        if kind is OperandKind.IINC:
            ok = (isinstance(self.operand, tuple) and len(self.operand) == 2
                  and all(isinstance(x, int) for x in self.operand))
            if not ok:
                raise BytecodeError(
                    f"iinc operand must be (local, delta), got "
                    f"{self.operand!r}")
        elif kind in (OperandKind.IMM, OperandKind.LOCAL, OperandKind.CP):
            if not isinstance(self.operand, int) or isinstance(
                    self.operand, bool):
                raise BytecodeError(
                    f"{spec.mnemonic} operand must be int, got "
                    f"{self.operand!r}")
            if kind in (OperandKind.LOCAL, OperandKind.CP) and \
                    self.operand < 0:
                raise BytecodeError(
                    f"{spec.mnemonic} operand must be non-negative, got "
                    f"{self.operand}")

    @property
    def spec(self):
        """The opcode's static metadata."""
        return SPECS[self.op]

    @property
    def is_resolved_branch(self) -> bool:
        """True when a LABEL operand has been resolved to an index."""
        return (self.spec.operand is OperandKind.LABEL
                and isinstance(self.operand, int))

    def __repr__(self):  # pragma: no cover - debug aid
        if self.operand is None:
            return f"<{self.spec.mnemonic}>"
        return f"<{self.spec.mnemonic} {self.operand!r}>"


@dataclass(frozen=True)
class ExceptionEntry:
    """One row of a method's exception table.

    ``start``/``end`` delimit the protected instruction range
    (``start`` inclusive, ``end`` exclusive, as instruction indices once
    resolved), ``handler`` is the handler entry point, and ``catch_type``
    is the class name of the caught exception (``None`` catches
    everything — used for the synthetic ``finally`` in instrumentation
    wrappers).
    """

    start: Any   # label name pre-assembly, int index after
    end: Any
    handler: Any
    catch_type: Optional[str] = None
