"""The shared control-flow analysis (``repro.bytecode.flow``): what
``build_cfg`` checks, the stack-discipline walk ``CFG.stack_depths``,
and how the template translator reads it."""

import pytest
from helpers import build_app

from repro.bytecode.assembler import ClassAssembler
from repro.bytecode.flow import build_cfg
from repro.bytecode.instructions import Instruction
from repro.bytecode.opcodes import Op
from repro.bytecode.verifier import verify_method
from repro.classfile.constant_pool import CpFieldRef
from repro.errors import VerifyError
from repro.jit.template import translate
from repro.launcher import create_vm

_ARITH = "java.lang.ArithmeticException"


def _method(body, descriptor="()V"):
    c = ClassAssembler("fw.T")
    c.field("x", static=True)
    with c.method("f", descriptor, static=True) as m:
        body(m)
    with c.method("g", "(II)I", static=True) as m:
        m.iload(0).ireturn()
    cf = c.build()
    return cf.find_method("f", descriptor), cf.constant_pool


def _field_ref(pool):
    return next(i for i, e in pool.entries() if isinstance(e, CpFieldRef))


def _try_catch(m):
    m.label("try")
    m.iload(0).iconst(0).idiv().ireturn()
    m.label("end")
    m.label("handler")
    m.pop().iconst(-7).ireturn()
    m.try_catch("try", "end", "handler", _ARITH)


# -- build_cfg ----------------------------------------------------------------


def test_out_of_range_branch_target_is_a_verify_error():
    code = [Instruction(Op.GOTO, 99)]
    with pytest.raises(VerifyError, match="branch target 99 out of range"):
        build_cfg(code, [])


def test_last_instruction_must_end_a_block():
    code = [Instruction(Op.ICONST, 1), Instruction(Op.POP)]
    with pytest.raises(VerifyError, match="falls off the end") as info:
        build_cfg(code, [])
    assert info.value.pc == 1


# -- stack_depths -------------------------------------------------------------


def test_handler_entry_starts_at_depth_one():
    method, pool = _method(_try_catch, descriptor="(I)I")
    depth, _, max_depth = build_cfg(
        method.code, method.exception_table).stack_depths(pool)
    handler = method.exception_table[0].handler
    assert depth[handler] == 1
    assert depth[:handler] == [0, 1, 2, 1]
    assert max_depth == 2


def test_unreached_pc_has_depth_minus_one():
    def body(m):
        m.goto("end")
        m.iconst(1).pop()   # dead
        m.label("end")
        m.return_()
    method, pool = _method(body)
    depth, effects, _ = build_cfg(method.code, []).stack_depths(pool)
    assert depth == [0, -1, -1, 0]
    assert effects == [(0, 0), None, None, (0, 0)]


def test_reached_invoke_effect_comes_from_its_descriptor():
    def body(m):
        m.iconst(1).iconst(2).invokestatic("fw.T", "g", "(II)I")
        m.ireturn()
    method, pool = _method(body, descriptor="()I")
    depth, effects, max_depth = build_cfg(method.code, []).stack_depths(
        pool)
    assert effects[2] == (2, 1)
    assert depth == [0, 1, 2, 1]
    assert max_depth == 2


def test_bad_constant_in_dead_code_is_accepted():
    def body(m):
        m.goto("end")
        m.getstatic("fw.T", "x").pop()   # dead; patched below
        m.label("end")
        m.return_()
    method, pool = _method(body)
    method.code[1] = Instruction(Op.INVOKESTATIC, _field_ref(pool))
    assert verify_method(method, pool) == 0
    depth, effects, _ = build_cfg(method.code, []).stack_depths(pool)
    assert depth[1] == -1 and effects[1] is None


def test_bad_constant_at_a_reached_invoke_is_a_verify_error():
    def body(m):
        m.getstatic("fw.T", "x").pop()   # patched below
        m.return_()
    method, pool = _method(body)
    method.code[0] = Instruction(Op.INVOKESTATIC, _field_ref(pool))
    with pytest.raises(VerifyError, match="expected CpMethodRef") as info:
        verify_method(method, pool, class_name="fw.T")
    err = info.value
    assert (err.class_name, err.method, err.pc, err.mnemonic) == \
        ("fw.T", "f()V", 0, "invokestatic")


# -- the template translator --------------------------------------------------


def test_handler_reached_only_by_exception_gets_no_arm():
    c = ClassAssembler("fw.H")
    with c.method("f", "(I)I", static=True) as m:
        _try_catch(m)
    vm = create_vm()
    vm.loader.add_classpath_archive(build_app(c))
    method = vm.loader.load("fw.H").find_declared("f", "(I)I")
    info = method.info
    cfg = build_cfg(info.code, info.exception_table)
    handler = cfg.block_of(info.exception_table[0].handler)
    assert handler in cfg.reachable_blocks()
    assert handler not in cfg.reachable_blocks(exceptions=False)
    func, source, reason = translate(method, vm)
    assert reason is None and func is not None
    assert "b ==" not in source          # one block: no dispatch arms
    assert "-7" not in source            # the handler is not emitted
    assert f"'{_ARITH}', '/ by zero'" in source
