"""Figure-2 wrapper synthesis.

Transforms one :class:`~repro.classfile.classfile.ClassFile` in place:
each ``native`` method ``foo`` becomes::

    int foo(int a) {                 // synthesized bytecode wrapper
        IPA.J2N_Begin();
        try {
            return _ipa_foo(a);      // renamed native method
        } finally {
            IPA.J2N_End();
        }
    }
    native int _ipa_foo(int a);

The renamed method keeps its flags (still ``native``); the JVM links it
to the *unchanged* library symbol through the JVMTI prefix-retry.  The
wrapper's ``finally`` is an any-type exception-table row so ``J2N_End``
also runs when the native method throws — exactly the paper's concern.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from repro.bytecode.instructions import ExceptionEntry, Instruction
from repro.bytecode.opcodes import Op
from repro.classfile.classfile import ClassFile
from repro.classfile.constant_pool import CpMethodRef
from repro.classfile.members import (
    ACC_NATIVE,
    MethodInfo,
    parse_descriptor,
)
from repro.errors import InstrumentationError

#: Default prefix — "well-chosen" per the paper: must not occur at the
#: start of any real method name.
DEFAULT_PREFIX = "_$$ipa$$_"

#: Default runtime class exposing the transition routines as static
#: native methods (the paper's special class excluded from
#: instrumentation).
DEFAULT_RUNTIME_CLASS = "repro.agent.IPARuntime"


@dataclass(frozen=True)
class InstrumentationConfig:
    """Knobs of the wrapper transformation (hashable: it keys the
    instrumentation memo)."""

    prefix: str = DEFAULT_PREFIX
    runtime_class: str = DEFAULT_RUNTIME_CLASS
    begin_method: str = "J2N_Begin"
    end_method: str = "J2N_End"
    #: Classes never instrumented (the runtime class itself, plus any
    #: caller-specified exclusions).
    excluded_classes: Tuple[str, ...] = ()

    def is_excluded(self, class_name: str) -> bool:
        return (class_name == self.runtime_class
                or class_name in self.excluded_classes)


def _load_op_for(type_desc: str) -> Op:
    return Op.ALOAD if type_desc[0] in "L[" else Op.ILOAD


def _return_op_for(return_desc: str) -> Op:
    if return_desc == "V":
        return Op.RETURN
    return Op.ARETURN if return_desc[0] in "L[" else Op.IRETURN


def make_wrapper(cf: ClassFile, native: MethodInfo,
                 config: InstrumentationConfig) -> MethodInfo:
    """Build the Figure-2 wrapper for ``native`` (already renamed to
    ``prefix + name`` by the caller)."""
    pool = cf.constant_pool
    begin_ref = pool.add(CpMethodRef(config.runtime_class,
                                     config.begin_method, "()V"))
    end_ref = pool.add(CpMethodRef(config.runtime_class,
                                   config.end_method, "()V"))
    original_name = native.name[len(config.prefix):]
    target_ref = pool.add(CpMethodRef(cf.name, native.name,
                                      native.descriptor))
    params, ret = parse_descriptor(native.descriptor)

    code: List[Instruction] = [
        Instruction(Op.INVOKESTATIC, begin_ref)]
    slot = 0
    if not native.is_static:
        code.append(Instruction(Op.ALOAD, 0))
        slot = 1
    for param in params:
        code.append(Instruction(_load_op_for(param), slot))
        slot += 1
    try_start = 1  # the loads and the invoke are protected
    invoke_op = Op.INVOKESTATIC if native.is_static else Op.INVOKESPECIAL
    code.append(Instruction(invoke_op, target_ref))
    try_end = len(code)  # exclusive: up to (not including) J2N_End
    code.append(Instruction(Op.INVOKESTATIC, end_ref))
    code.append(Instruction(_return_op_for(ret)))
    handler = len(code)
    code.append(Instruction(Op.INVOKESTATIC, end_ref))
    code.append(Instruction(Op.ATHROW))

    wrapper_flags = native.flags & ~ACC_NATIVE
    return MethodInfo(
        original_name,
        native.descriptor,
        wrapper_flags,
        max_locals=slot,
        code=code,
        exception_table=[
            ExceptionEntry(try_start, try_end, handler, None)],
    )


def instrument_classfile(cf: ClassFile,
                         config: InstrumentationConfig) -> int:
    """Apply the transformation in place; returns the number of native
    methods wrapped (0 when the class has none or is excluded)."""
    if config.is_excluded(cf.name):
        return 0
    natives = cf.native_methods()
    if not natives:
        return 0
    wrapped = 0
    for method in natives:
        if method.name.startswith(config.prefix):
            raise InstrumentationError(
                f"{cf.name}.{method.name} already carries the prefix "
                f"{config.prefix!r} — double instrumentation?")
        cf.remove_method(method)
        renamed = MethodInfo(
            config.prefix + method.name,
            method.descriptor,
            method.flags,
            max_locals=method.max_locals,
            code=None,
        )
        cf.add_method(renamed)
        cf.add_method(make_wrapper(cf, renamed, config))
        wrapped += 1
    return wrapped
