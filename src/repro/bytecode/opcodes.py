"""The instruction set of the simulated virtual machine.

The ISA is a compact, JVM-flavoured stack machine.  Deliberate
simplifications relative to the real JVM (documented here so the rest of
the system can rely on them):

* Every value occupies **one** operand-stack slot and one local-variable
  slot; there are no two-slot ``long``/``double`` values.  Numeric values
  are Python ints and floats.
* Arithmetic opcodes in the ``I`` family are polymorphic over ints and
  floats, except :attr:`Op.IDIV` / :attr:`Op.IREM` which implement Java
  integer semantics (truncation toward zero, ``ArithmeticException`` on
  division by zero).  :attr:`Op.FDIV` is true division with IEEE-754
  zeros: a zero or NaN dividend over zero gives NaN, any other gives an
  infinity with the XOR of the operand signs.  :attr:`Op.F2I` follows
  the JVM: it truncates toward zero, turns NaN into 0 and saturates
  infinities and out-of-range values to the int32 bounds.
  :attr:`Op.IINC` wraps an int local to int32 and leaves a float local
  a float.
* There are no interfaces; :attr:`Op.INVOKEVIRTUAL` performs dynamic
  dispatch over the single-inheritance class hierarchy.
* Array element kinds are declared at allocation time via
  :class:`ArrayKind`; stores are normalised per kind (e.g. byte arrays
  wrap to the signed 8-bit range, as in Java).

Each opcode has an :class:`OpcodeSpec` describing its mnemonic, operand
kind, static stack effect and cost class; what it computes is
:data:`repro.jvm.semantics.SEMANTICS`, which both execution tiers
render.  Variable stack effects
(invokes and returns) are marked with ``pops=VARIABLE``; the verifier
resolves them from the method descriptor in the constant pool.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

#: Sentinel stack effect for opcodes whose pops/pushes depend on operands.
VARIABLE = -1


class Op(enum.IntEnum):
    """Opcode numbering; values are stable and used by the serializer."""

    NOP = 0x00
    ICONST = 0x01        # push immediate int (s4 operand)
    LDC = 0x02           # push constant-pool constant (int/float/string)
    ACONST_NULL = 0x03

    ILOAD = 0x10         # push numeric local
    ISTORE = 0x11
    ALOAD = 0x12         # push reference local
    ASTORE = 0x13
    IINC = 0x14          # locals[idx] += delta; operand packs (idx, delta)

    POP = 0x20
    DUP = 0x21
    DUP_X1 = 0x22
    SWAP = 0x23

    IADD = 0x30
    ISUB = 0x31
    IMUL = 0x32
    IDIV = 0x33          # Java int division
    IREM = 0x34
    INEG = 0x35
    ISHL = 0x36
    ISHR = 0x37
    IUSHR = 0x38
    IAND = 0x39
    IOR = 0x3A
    IXOR = 0x3B
    FDIV = 0x3C          # true (float) division
    I2F = 0x3D
    F2I = 0x3E           # truncate toward zero; NaN -> 0, saturating
    FCMP = 0x3F          # push -1/0/1

    GOTO = 0x50
    IFEQ = 0x51
    IFNE = 0x52
    IFLT = 0x53
    IFLE = 0x54
    IFGT = 0x55
    IFGE = 0x56
    IF_ICMPEQ = 0x57
    IF_ICMPNE = 0x58
    IF_ICMPLT = 0x59
    IF_ICMPLE = 0x5A
    IF_ICMPGT = 0x5B
    IF_ICMPGE = 0x5C
    IFNULL = 0x5D
    IFNONNULL = 0x5E
    IF_ACMPEQ = 0x5F
    IF_ACMPNE = 0x60

    NEW = 0x70           # cp class ref
    GETFIELD = 0x71      # cp field ref
    PUTFIELD = 0x72
    GETSTATIC = 0x73
    PUTSTATIC = 0x74
    INSTANCEOF = 0x75
    CHECKCAST = 0x76

    NEWARRAY = 0x80      # ArrayKind operand; length popped
    IALOAD = 0x81        # numeric array load
    IASTORE = 0x82
    AALOAD = 0x83        # reference array load
    AASTORE = 0x84
    ARRAYLENGTH = 0x85

    INVOKESTATIC = 0x90  # cp method ref
    INVOKEVIRTUAL = 0x91
    INVOKESPECIAL = 0x92
    RETURN = 0x93
    IRETURN = 0x94
    ARETURN = 0x95

    ATHROW = 0xA0
    MONITORENTER = 0xA1
    MONITOREXIT = 0xA2


class OperandKind(enum.Enum):
    """What, if anything, follows the opcode."""

    NONE = "none"
    IMM = "imm"          # signed 32-bit immediate
    LOCAL = "local"      # local-variable index (u2)
    CP = "cp"            # constant-pool index (u2)
    LABEL = "label"      # branch target (label name pre-assembly, pc after)
    ARRAY_KIND = "array_kind"
    IINC = "iinc"        # (local index, signed delta) pair


class ArrayKind(enum.IntEnum):
    """Element kind of a simulated array."""

    INT = 0
    FLOAT = 1
    BYTE = 2
    CHAR = 3
    REF = 4


@dataclass(frozen=True)
class OpcodeSpec:
    """Static metadata for one opcode."""

    op: "Op"
    mnemonic: str
    operand: OperandKind
    pops: int
    pushes: int
    cost_class: str
    is_branch: bool = False
    ends_block: bool = False  # unconditional control transfer (no fallthrough)


def _spec(op, operand, pops, pushes, cost, branch=False, ends=False):
    return OpcodeSpec(op, op.name.lower(), operand, pops, pushes, cost,
                      is_branch=branch, ends_block=ends)


#: Per-opcode metadata, keyed by :class:`Op`.
SPECS = {
    Op.NOP: _spec(Op.NOP, OperandKind.NONE, 0, 0, "simple"),
    Op.ICONST: _spec(Op.ICONST, OperandKind.IMM, 0, 1, "const"),
    Op.LDC: _spec(Op.LDC, OperandKind.CP, 0, 1, "const"),
    Op.ACONST_NULL: _spec(Op.ACONST_NULL, OperandKind.NONE, 0, 1, "const"),

    Op.ILOAD: _spec(Op.ILOAD, OperandKind.LOCAL, 0, 1, "load"),
    Op.ISTORE: _spec(Op.ISTORE, OperandKind.LOCAL, 1, 0, "store"),
    Op.ALOAD: _spec(Op.ALOAD, OperandKind.LOCAL, 0, 1, "load"),
    Op.ASTORE: _spec(Op.ASTORE, OperandKind.LOCAL, 1, 0, "store"),
    Op.IINC: _spec(Op.IINC, OperandKind.IINC, 0, 0, "simple"),

    Op.POP: _spec(Op.POP, OperandKind.NONE, 1, 0, "simple"),
    Op.DUP: _spec(Op.DUP, OperandKind.NONE, 1, 2, "simple"),
    Op.DUP_X1: _spec(Op.DUP_X1, OperandKind.NONE, 2, 3, "simple"),
    Op.SWAP: _spec(Op.SWAP, OperandKind.NONE, 2, 2, "simple"),

    Op.IADD: _spec(Op.IADD, OperandKind.NONE, 2, 1, "alu"),
    Op.ISUB: _spec(Op.ISUB, OperandKind.NONE, 2, 1, "alu"),
    Op.IMUL: _spec(Op.IMUL, OperandKind.NONE, 2, 1, "mul"),
    Op.IDIV: _spec(Op.IDIV, OperandKind.NONE, 2, 1, "div"),
    Op.IREM: _spec(Op.IREM, OperandKind.NONE, 2, 1, "div"),
    Op.INEG: _spec(Op.INEG, OperandKind.NONE, 1, 1, "alu"),
    Op.ISHL: _spec(Op.ISHL, OperandKind.NONE, 2, 1, "alu"),
    Op.ISHR: _spec(Op.ISHR, OperandKind.NONE, 2, 1, "alu"),
    Op.IUSHR: _spec(Op.IUSHR, OperandKind.NONE, 2, 1, "alu"),
    Op.IAND: _spec(Op.IAND, OperandKind.NONE, 2, 1, "alu"),
    Op.IOR: _spec(Op.IOR, OperandKind.NONE, 2, 1, "alu"),
    Op.IXOR: _spec(Op.IXOR, OperandKind.NONE, 2, 1, "alu"),
    Op.FDIV: _spec(Op.FDIV, OperandKind.NONE, 2, 1, "div"),
    Op.I2F: _spec(Op.I2F, OperandKind.NONE, 1, 1, "alu"),
    Op.F2I: _spec(Op.F2I, OperandKind.NONE, 1, 1, "alu"),
    Op.FCMP: _spec(Op.FCMP, OperandKind.NONE, 2, 1, "alu"),

    Op.GOTO: _spec(Op.GOTO, OperandKind.LABEL, 0, 0, "branch",
                   branch=True, ends=True),
    Op.IFEQ: _spec(Op.IFEQ, OperandKind.LABEL, 1, 0, "branch", branch=True),
    Op.IFNE: _spec(Op.IFNE, OperandKind.LABEL, 1, 0, "branch", branch=True),
    Op.IFLT: _spec(Op.IFLT, OperandKind.LABEL, 1, 0, "branch", branch=True),
    Op.IFLE: _spec(Op.IFLE, OperandKind.LABEL, 1, 0, "branch", branch=True),
    Op.IFGT: _spec(Op.IFGT, OperandKind.LABEL, 1, 0, "branch", branch=True),
    Op.IFGE: _spec(Op.IFGE, OperandKind.LABEL, 1, 0, "branch", branch=True),
    Op.IF_ICMPEQ: _spec(Op.IF_ICMPEQ, OperandKind.LABEL, 2, 0, "branch",
                        branch=True),
    Op.IF_ICMPNE: _spec(Op.IF_ICMPNE, OperandKind.LABEL, 2, 0, "branch",
                        branch=True),
    Op.IF_ICMPLT: _spec(Op.IF_ICMPLT, OperandKind.LABEL, 2, 0, "branch",
                        branch=True),
    Op.IF_ICMPLE: _spec(Op.IF_ICMPLE, OperandKind.LABEL, 2, 0, "branch",
                        branch=True),
    Op.IF_ICMPGT: _spec(Op.IF_ICMPGT, OperandKind.LABEL, 2, 0, "branch",
                        branch=True),
    Op.IF_ICMPGE: _spec(Op.IF_ICMPGE, OperandKind.LABEL, 2, 0, "branch",
                        branch=True),
    Op.IFNULL: _spec(Op.IFNULL, OperandKind.LABEL, 1, 0, "branch",
                     branch=True),
    Op.IFNONNULL: _spec(Op.IFNONNULL, OperandKind.LABEL, 1, 0, "branch",
                        branch=True),
    Op.IF_ACMPEQ: _spec(Op.IF_ACMPEQ, OperandKind.LABEL, 2, 0, "branch",
                        branch=True),
    Op.IF_ACMPNE: _spec(Op.IF_ACMPNE, OperandKind.LABEL, 2, 0, "branch",
                        branch=True),

    Op.NEW: _spec(Op.NEW, OperandKind.CP, 0, 1, "alloc"),
    Op.GETFIELD: _spec(Op.GETFIELD, OperandKind.CP, 1, 1, "field"),
    Op.PUTFIELD: _spec(Op.PUTFIELD, OperandKind.CP, 2, 0, "field"),
    Op.GETSTATIC: _spec(Op.GETSTATIC, OperandKind.CP, 0, 1, "field"),
    Op.PUTSTATIC: _spec(Op.PUTSTATIC, OperandKind.CP, 1, 0, "field"),
    Op.INSTANCEOF: _spec(Op.INSTANCEOF, OperandKind.CP, 1, 1, "field"),
    Op.CHECKCAST: _spec(Op.CHECKCAST, OperandKind.CP, 1, 1, "field"),

    Op.NEWARRAY: _spec(Op.NEWARRAY, OperandKind.ARRAY_KIND, 1, 1, "alloc"),
    Op.IALOAD: _spec(Op.IALOAD, OperandKind.NONE, 2, 1, "array"),
    Op.IASTORE: _spec(Op.IASTORE, OperandKind.NONE, 3, 0, "array"),
    Op.AALOAD: _spec(Op.AALOAD, OperandKind.NONE, 2, 1, "array"),
    Op.AASTORE: _spec(Op.AASTORE, OperandKind.NONE, 3, 0, "array"),
    Op.ARRAYLENGTH: _spec(Op.ARRAYLENGTH, OperandKind.NONE, 1, 1, "array"),

    Op.INVOKESTATIC: _spec(Op.INVOKESTATIC, OperandKind.CP, VARIABLE,
                           VARIABLE, "invoke"),
    Op.INVOKEVIRTUAL: _spec(Op.INVOKEVIRTUAL, OperandKind.CP, VARIABLE,
                            VARIABLE, "invoke"),
    Op.INVOKESPECIAL: _spec(Op.INVOKESPECIAL, OperandKind.CP, VARIABLE,
                            VARIABLE, "invoke"),
    Op.RETURN: _spec(Op.RETURN, OperandKind.NONE, 0, 0, "return", ends=True),
    Op.IRETURN: _spec(Op.IRETURN, OperandKind.NONE, 1, 0, "return",
                      ends=True),
    Op.ARETURN: _spec(Op.ARETURN, OperandKind.NONE, 1, 0, "return",
                      ends=True),

    Op.ATHROW: _spec(Op.ATHROW, OperandKind.NONE, 1, 0, "throw", ends=True),
    Op.MONITORENTER: _spec(Op.MONITORENTER, OperandKind.NONE, 1, 0,
                           "monitor"),
    Op.MONITOREXIT: _spec(Op.MONITOREXIT, OperandKind.NONE, 1, 0, "monitor"),
}

#: Opcodes that invoke a method (share resolution/dispatch machinery).
INVOKE_OPS = frozenset({Op.INVOKESTATIC, Op.INVOKEVIRTUAL, Op.INVOKESPECIAL})
