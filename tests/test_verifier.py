"""Bytecode verifier: structural and stack-discipline checks."""

import pytest
from helpers import build_app, run_main

from repro.bytecode.assembler import ClassAssembler
from repro.bytecode.instructions import Instruction
from repro.bytecode.opcodes import Op
from repro.bytecode.verifier import verify_class, verify_method
from repro.classfile.constant_pool import CpFieldRef
from repro.cli import main
from repro.errors import VerifyError
from repro.jvm.machine import VMConfig


def _method(body, descriptor="()V", name="f"):
    c = ClassAssembler("v.T")
    with c.method(name, descriptor, static=True) as m:
        body(m)
    cf = c.build(verify=False)
    return cf.find_method(name, descriptor), cf.constant_pool


class TestStructuralChecks:
    def test_falling_off_the_end_rejected(self):
        method, pool = _method(lambda m: m.iconst(1).pop())
        with pytest.raises(VerifyError, match="falls off the end"):
            verify_method(method, pool)

    def test_empty_code_rejected(self):
        c = ClassAssembler("v.E")
        m = c.method("f", "()V", static=True)
        m.finish()
        cf = c.build(verify=False)
        with pytest.raises(VerifyError, match="empty code"):
            verify_method(cf.find_method("f", "()V"), cf.constant_pool)

    def test_branch_target_out_of_range(self):
        def body(m):
            m.emit_raw_goto = None
            from repro.bytecode.instructions import Instruction
            from repro.bytecode.opcodes import Op

            m._code.append(Instruction(Op.GOTO, 99))

        method, pool = _method(body)
        with pytest.raises(VerifyError, match="out of range"):
            verify_method(method, pool)

    def test_local_index_beyond_max_locals(self):
        c = ClassAssembler("v.L")
        m = c.method("f", "()V", static=True)
        m.iload(3).pop().return_()
        info = m.finish()
        info.max_locals = 1  # corrupt it
        cf = c.build(verify=False)
        with pytest.raises(VerifyError, match="max_locals"):
            verify_method(info, cf.constant_pool)

    def test_value_return_from_void_method(self):
        method, pool = _method(lambda m: m.iconst(1).ireturn())
        with pytest.raises(VerifyError, match="value return"):
            verify_method(method, pool)

    def test_void_return_from_value_method(self):
        method, pool = _method(lambda m: m.return_(),
                               descriptor="()I")
        with pytest.raises(VerifyError, match="void return"):
            verify_method(method, pool)

    def test_unresolved_label_rejected(self):
        from repro.bytecode.instructions import Instruction
        from repro.bytecode.opcodes import Op
        from repro.classfile.members import MethodInfo

        info = MethodInfo("f", "()V", 0x0008, max_locals=0,
                          code=[Instruction(Op.GOTO, "loop")])
        c = ClassAssembler("v.U")
        cf = c.build(verify=False)
        with pytest.raises(VerifyError, match="unresolved label"):
            verify_method(info, cf.constant_pool)


class TestStackDiscipline:
    def test_underflow_detected(self):
        method, pool = _method(lambda m: m.iadd().pop().return_())
        with pytest.raises(VerifyError, match="underflow"):
            verify_method(method, pool)

    def test_inconsistent_depth_at_merge(self):
        def body(m):
            m.iconst(0).ifeq("merge")
            m.iconst(1)          # one path pushes
            m.label("merge")
            m.return_()

        method, pool = _method(body)
        with pytest.raises(VerifyError, match="inconsistent stack"):
            verify_method(method, pool)

    def test_consistent_diamond_accepted(self):
        def body(m):
            m.iconst(0).ifeq("right")
            m.iconst(1).goto("merge")
            m.label("right")
            m.iconst(2)
            m.label("merge")
            m.pop().return_()

        method, pool = _method(body)
        assert verify_method(method, pool) >= 1

    def test_invoke_effects_from_descriptor(self):
        c = ClassAssembler("v.I")
        with c.method("callee", "(II)I", static=True) as m:
            m.iload(0).iload(1).iadd().ireturn()
        with c.method("f", "()I", static=True) as m:
            m.iconst(1).iconst(2)
            m.invokestatic("v.I", "callee", "(II)I")
            m.ireturn()
        cf = c.build(verify=False)
        assert verify_method(cf.find_method("f", "()I"),
                             cf.constant_pool) == 2

    def test_invoke_underflow_detected(self):
        c = ClassAssembler("v.I2")
        with c.method("callee", "(II)I", static=True) as m:
            m.iload(0).ireturn()
        m = c.method("f", "()I", static=True)
        m.iconst(1)
        m.invokestatic("v.I2", "callee", "(II)I")
        m.ireturn()
        m.finish()
        cf = c.build(verify=False)
        with pytest.raises(VerifyError, match="underflow"):
            verify_method(cf.find_method("f", "()I"),
                          cf.constant_pool)

    def test_handler_starts_at_depth_one(self):
        def body(m):
            m.label("a")
            m.iconst(1).pop()
            m.label("b")
            m.return_()
            m.label("h")
            m.pop().return_()   # pops the exception object
            m.try_catch("a", "b", "h", None)

        method, pool = _method(body)
        assert verify_method(method, pool) >= 1

    def test_returns_max_depth(self):
        method, pool = _method(
            lambda m: m.iconst(1).iconst(2).iconst(3).pop().pop().pop()
            .return_())
        assert verify_method(method, pool) == 3

    def test_native_methods_trivially_verify(self):
        c = ClassAssembler("v.N")
        info = c.native_method("n", "()V", static=True)
        cf = c.build(verify=False)
        assert verify_method(info, cf.constant_pool) == 0

    def test_verify_class_walks_all_methods(self):
        c = ClassAssembler("v.W")
        with c.method("ok", "()V", static=True) as m:
            m.return_()
        m = c.method("bad", "()V", static=True)
        m.iadd().return_()
        m.finish()
        cf = c.build(verify=False)
        with pytest.raises(VerifyError):
            verify_class(cf)

    def test_loop_verifies_once(self):
        def body(m):
            m.iconst(0).istore(0)
            m.label("top")
            m.iload(0).iconst(5).if_icmpge("end")
            m.iinc(0, 1).goto("top")
            m.label("end")
            m.return_()

        method, pool = _method(body)
        verify_method(method, pool)


def _field_ref_invoke_app():
    """``main`` whose first instruction invokes a field ref."""
    c = ClassAssembler("t.Main")
    c.field("x", static=True)
    with c.method("main", "()V", static=True) as m:
        m.getstatic("t.Main", "x").pop()
        m.return_()
    cf = c.build()
    index = next(i for i, e in cf.constant_pool.entries()
                 if isinstance(e, CpFieldRef))
    cf.find_method("main", "()V").code[0] = Instruction(
        Op.INVOKESTATIC, index)
    app = build_app()
    app.put_class(cf)
    return app


class TestBadInvokeConstant:
    def test_cli_analyze_reports_a_structural_error(self, tmp_path,
                                                     capsys):
        path = tmp_path / "badcp.rja"
        _field_ref_invoke_app().save(str(path))
        code = main(["analyze", "--archive", str(path), "--no-ledger"])
        captured = capsys.readouterr()
        assert code == 1
        assert "Traceback" not in captured.err
        assert ("error   [structural] t.Main.main()V @ 0: constant-pool "
                "entry 1 is CpFieldRef, expected CpMethodRef") in \
            captured.out

    @pytest.mark.parametrize("mode", ["structural", "typed"])
    def test_class_load_raises_verify_error(self, mode):
        with pytest.raises(VerifyError,
                           match="expected CpMethodRef") as info:
            run_main(_field_ref_invoke_app(), "t.Main",
                     config=VMConfig(verify=mode))
        err = info.value
        assert (err.class_name, err.method, err.pc) == \
            ("t.Main", "main()V", 0)
