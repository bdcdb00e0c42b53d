"""Bytecode layer: the simulator's JVM-like instruction set.

Public surface:

* :mod:`repro.bytecode.opcodes` — the :class:`~repro.bytecode.opcodes.Op`
  enumeration and per-opcode metadata (:data:`~repro.bytecode.opcodes.SPECS`).
* :class:`~repro.bytecode.instructions.Instruction` — one decoded instruction.
* :class:`~repro.bytecode.assembler.MethodAssembler` /
  :class:`~repro.bytecode.assembler.ClassAssembler` — the builder API used by
  the runtime library and the workloads to author bytecode.
* :func:`~repro.bytecode.disassembler.disassemble` — human-readable listings.
* :mod:`repro.bytecode.flow` — one method's basic blocks, reachability
  and operand-stack depths, shared by both verifiers, the template
  translator and the race analysis.
* :func:`~repro.bytecode.verifier.verify_method` — structural verification.

The assembler/disassembler/verifier exports are lazy (PEP 562), and
:mod:`repro.bytecode.flow` is not imported here: they depend on
:mod:`repro.classfile`, which itself depends on the eager part of this
package.
"""

from repro.bytecode.opcodes import Op, OperandKind, SPECS, ArrayKind
from repro.bytecode.instructions import Instruction

__all__ = [
    "Op",
    "OperandKind",
    "SPECS",
    "ArrayKind",
    "Instruction",
    "ClassAssembler",
    "MethodAssembler",
    "disassemble",
    "verify_method",
]

_LAZY = {
    "ClassAssembler": ("repro.bytecode.assembler", "ClassAssembler"),
    "MethodAssembler": ("repro.bytecode.assembler", "MethodAssembler"),
    "disassemble": ("repro.bytecode.disassembler", "disassemble"),
    "verify_method": ("repro.bytecode.verifier", "verify_method"),
}


def __getattr__(name):
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(module_name)
    value = getattr(module, attr)
    globals()[name] = value
    return value
