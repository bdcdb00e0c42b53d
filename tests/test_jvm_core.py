"""VM core: values, heap, threads, class loading, machine lifecycle,
and the runtime library."""

import pytest

from repro.bytecode.assembler import ClassAssembler
from repro.bytecode.opcodes import ArrayKind
from repro.errors import (
    ClassNotFoundError,
    VMError,
)
from repro.jvm.costmodel import ChargeTag
from repro.jvm.heap import Heap
from repro.jvm.machine import JavaVM
from repro.jvm.threads import SimThread, ThreadState
from repro.jvm.values import (
    JArray,
    is_reference,
    wrap_char,
    wrap_int8,
    wrap_int32,
)
from repro.launcher import create_vm, runtime_archive

from helpers import build_app, expr_main, run_main


class TestValueWrapping:
    @pytest.mark.parametrize("value,expected", [
        (0, 0), (2**31 - 1, 2**31 - 1), (2**31, -2**31),
        (-2**31 - 1, 2**31 - 1), (2**32, 0), (-1, -1),
    ])
    def test_wrap_int32(self, value, expected):
        assert wrap_int32(value) == expected

    def test_wrap_int8(self):
        assert wrap_int8(127) == 127
        assert wrap_int8(128) == -128
        assert wrap_int8(255) == -1

    def test_wrap_char(self):
        assert wrap_char(-1) == 0xFFFF
        assert wrap_char(65) == 65

    def test_array_normalization_per_kind(self):
        heap = Heap()
        byte_arr = heap.alloc_array(ArrayKind.BYTE, 1)
        assert byte_arr.normalize(300) == 44
        float_arr = heap.alloc_array(ArrayKind.FLOAT, 1)
        assert float_arr.normalize(2) == 2.0
        ref_arr = heap.alloc_array(ArrayKind.REF, 1)
        sentinel = object()
        assert ref_arr.normalize(sentinel) is sentinel

    def test_is_reference(self):
        heap = Heap()
        assert is_reference(None)
        assert is_reference(heap.alloc_array(ArrayKind.INT, 0))
        assert not is_reference(42)


class TestHeap:
    def test_object_ids_unique(self):
        heap = Heap()
        a = heap.alloc_array(ArrayKind.INT, 1)
        b = heap.alloc_array(ArrayKind.INT, 1)
        assert a.object_id != b.object_id

    def test_negative_length_rejected(self):
        with pytest.raises(VMError):
            Heap().alloc_array(ArrayKind.INT, -1)

    def test_float_arrays_default_to_zero_float(self):
        arr = Heap().alloc_array(ArrayKind.FLOAT, 3)
        assert arr.data == [0.0, 0.0, 0.0]

    def test_intern_returns_same_object(self):
        vm = create_vm()
        vm.threads.current = vm.threads.create("t")
        a = vm.intern_string("hello")
        b = vm.intern_string("hello")
        assert a is b
        c = vm.new_string("hello")
        assert c is not a


class TestThreads:
    def test_charge_updates_counter_and_tags(self):
        thread = SimThread(1, "t")
        thread.charge(100, ChargeTag.BYTECODE)
        thread.charge(50, ChargeTag.NATIVE)
        assert thread.cycles_total == 150
        assert thread.cycles_by_tag[ChargeTag.BYTECODE] == 100
        assert thread.cycles_by_tag[ChargeTag.NATIVE] == 50

    def test_double_start_rejected(self):
        vm = create_vm()
        thread = vm.threads.create("w")
        vm.threads.enqueue(thread)
        with pytest.raises(VMError, match="twice"):
            vm.threads.enqueue(thread)

    def test_java_thread_lifecycle(self):
        worker = ClassAssembler("th.Worker",
                                super_name="java.lang.Thread")
        worker.field("done", static=True, default=0)
        with worker.method("run", "()V") as m:
            m.iconst(7).putstatic("th.Worker", "done")
            m.return_()
        main = ClassAssembler("th.Main")
        with main.method("main", "()V", static=True) as m:
            m.new("th.Worker").dup()
            m.invokespecial("th.Worker", "<init>", "()V").astore(0)
            m.aload(0).invokevirtual("th.Worker", "start", "()V")
            m.aload(0).invokevirtual("th.Worker", "join", "()V")
            m.getstatic("java.lang.System", "out")
            m.getstatic("th.Worker", "done")
            m.invokevirtual("java.io.PrintStream", "println", "(I)V")
            m.return_()
        vm = run_main(build_app(worker, main), "th.Main")
        assert vm.console[-1] == "7"
        states = [t.state for t in vm.threads.all_threads]
        assert all(s is ThreadState.TERMINATED for s in states)

    def test_unjoined_thread_drained_before_vm_death(self):
        worker = ClassAssembler("th2.Worker",
                                super_name="java.lang.Thread")
        with worker.method("run", "()V") as m:
            m.getstatic("java.lang.System", "out")
            m.ldc("late").invokevirtual(
                "java.io.PrintStream", "println",
                "(Ljava.lang.String;)V")
            m.return_()
        main = ClassAssembler("th2.Main")
        with main.method("main", "()V", static=True) as m:
            m.new("th2.Worker").dup()
            m.invokespecial("th2.Worker", "<init>", "()V")
            m.invokevirtual("th2.Worker", "start", "()V")
            m.return_()
        vm = run_main(build_app(worker, main), "th2.Main")
        assert "late" in vm.console

    def test_per_thread_counters_are_separate(self):
        worker = ClassAssembler("th3.Worker",
                                super_name="java.lang.Thread")
        with worker.method("run", "()V") as m:
            m.iconst(0).istore(1)
            m.label("t")
            m.iload(1).ldc(2000).if_icmpge("e")
            m.iinc(1, 1).goto("t")
            m.label("e")
            m.return_()
        main = ClassAssembler("th3.Main")
        with main.method("main", "()V", static=True) as m:
            m.new("th3.Worker").dup()
            m.invokespecial("th3.Worker", "<init>", "()V").astore(0)
            m.aload(0).invokevirtual("th3.Worker", "start", "()V")
            m.aload(0).invokevirtual("th3.Worker", "join", "()V")
            m.return_()
        vm = run_main(build_app(worker, main), "th3.Main")
        threads = vm.threads.all_threads
        assert len(threads) == 2
        worker_thread = threads[1]
        assert worker_thread.cycles_total > 0
        assert vm.threads.total_cycles() == sum(
            t.cycles_total for t in threads)


class TestClassLoader:
    def test_missing_class(self):
        vm = create_vm()
        vm.threads.current = vm.threads.create("t")
        with pytest.raises(ClassNotFoundError):
            vm.loader.load("no.Such")

    def test_loading_is_idempotent(self):
        vm = create_vm()
        vm.threads.current = vm.threads.create("t")
        a = vm.loader.load("java.lang.String")
        b = vm.loader.load("java.lang.String")
        assert a is b

    def test_superclass_chain_links(self):
        vm = create_vm()
        vm.threads.current = vm.threads.create("t")
        npe = vm.loader.load("java.lang.NullPointerException")
        assert npe.is_subclass_of("java.lang.RuntimeException")
        assert npe.is_subclass_of("java.lang.Throwable")
        assert npe.is_subclass_of("java.lang.Object")
        assert not npe.is_subclass_of("java.lang.Error")

    def test_bootclasspath_prepend_wins(self):
        # an instrumented-style shadow class on the prepend path must
        # be chosen over the runtime library's version
        shadow = ClassAssembler("java.lang.Math")
        with shadow.method("abs", "(I)I", static=True) as m:
            m.iconst(999).ireturn()
        vm = create_vm()
        vm.loader.prepend_boot_archive(build_app(shadow))

        def body(m):
            m.iconst(-5).invokestatic("java.lang.Math", "abs", "(I)I")

        vm.loader.add_classpath_archive(
            build_app(expr_main("bp.Main", body)))
        vm.launch("bp.Main")
        assert vm.console[-1] == "999"

    def test_class_loading_charges_vm_cycles(self):
        _, vm = _run_trivial()
        assert vm.ground_truth()["vm"] > 0

    def test_loaded_class_listing(self):
        _, vm = _run_trivial()
        names = [c.name for c in vm.loader.loaded_classes()]
        assert "java.lang.Object" in names


def _run_trivial():
    from helpers import run_expr

    return run_expr(lambda m: m.iconst(1))


class TestMachine:
    def test_single_launch_enforced(self):
        _, vm = _run_trivial()
        with pytest.raises(VMError):
            vm.launch("again.Main")

    def test_agents_cannot_attach_after_launch(self):
        from repro.agents.counting import CountingAgent

        _, vm = _run_trivial()
        with pytest.raises(VMError):
            vm.attach_agent(CountingAgent())

    def test_main_requires_static_main(self):
        c = ClassAssembler("nm.Main")
        with c.method("notMain", "()V", static=True) as m:
            m.return_()
        from repro.errors import NoSuchMethodError

        with pytest.raises(NoSuchMethodError):
            run_main(build_app(c), "nm.Main")

    def test_elapsed_seconds_uses_clock(self):
        _, vm = _run_trivial()
        assert vm.elapsed_seconds == pytest.approx(
            vm.total_cycles / vm.config.clock_hz)

    def test_ground_truth_fraction_bounds(self):
        _, vm = _run_trivial()
        assert 0.0 <= vm.ground_truth_native_fraction() <= 1.0

    def test_main_entry_counts_as_jni_invocation(self):
        _, vm = _run_trivial()
        assert vm.jni_invocations >= 1


class TestRuntimeLibrary:
    def test_archive_contains_core_classes(self):
        archive = runtime_archive()
        for name in ("java.lang.Object", "java.lang.String",
                     "java.lang.System", "java.lang.StringBuilder",
                     "java.lang.Math", "java.lang.Thread",
                     "java.lang.Throwable", "java.util.Random",
                     "java.io.FileInputStream", "java.io.PrintStream",
                     "java.util.zip.CRC32"):
            assert name in archive, name

    def test_string_builder_grows(self):
        def body(m):
            m.new("java.lang.StringBuilder").dup()
            m.invokespecial("java.lang.StringBuilder", "<init>", "()V")
            m.astore(0)
            m.iconst(0).istore(1)
            m.label("t")
            m.iload(1).iconst(40).if_icmpge("e")
            m.aload(0).ldc("0123456789")
            m.invokevirtual(
                "java.lang.StringBuilder", "appendString",
                "(Ljava.lang.String;)Ljava.lang.StringBuilder;")
            m.pop()
            m.iinc(1, 1).goto("t")
            m.label("e")
            m.aload(0).invokevirtual("java.lang.StringBuilder",
                                     "length", "()I")

        from helpers import run_expr

        result, _ = run_expr(body)
        assert result == 400

    def test_string_builder_to_string(self):
        def body(m):
            m.new("java.lang.StringBuilder").dup()
            m.invokespecial("java.lang.StringBuilder", "<init>", "()V")
            m.ldc("a=")
            m.invokevirtual(
                "java.lang.StringBuilder", "appendString",
                "(Ljava.lang.String;)Ljava.lang.StringBuilder;")
            m.iconst(-17)
            m.invokevirtual("java.lang.StringBuilder", "appendInt",
                            "(I)Ljava.lang.StringBuilder;")
            m.iconst(33)
            m.invokevirtual("java.lang.StringBuilder", "appendChar",
                            "(I)Ljava.lang.StringBuilder;")
            m.invokevirtual("java.lang.StringBuilder", "toString",
                            "()Ljava.lang.String;")
            m.invokevirtual("java.lang.String", "length", "()I")

        from helpers import run_expr

        result, _ = run_expr(body)
        assert result == len("a=-17!")

    def test_random_lcg_sequence(self):
        def body(m):
            m.new("java.util.Random").dup().ldc(42)
            m.invokespecial("java.util.Random", "<init>", "(I)V")
            m.astore(0)
            m.aload(0).invokevirtual("java.util.Random", "next", "()I")
            m.pop()
            m.aload(0).invokevirtual("java.util.Random", "next", "()I")

        from helpers import run_expr

        result, _ = run_expr(body)
        seed = 42
        for _ in range(2):
            seed = (seed * 1103515245 + 12345) & 0x7FFFFFFF
        assert result == seed

    def test_math_helpers(self):
        from helpers import run_expr

        result, _ = run_expr(
            lambda m: m.iconst(-9).invokestatic("java.lang.Math",
                                                "abs", "(I)I"))
        assert result == 9
        result, _ = run_expr(
            lambda m: m.iconst(3).iconst(8).invokestatic(
                "java.lang.Math", "min", "(II)I"))
        assert result == 3

    def test_character_class_helpers(self):
        from helpers import run_expr

        result, _ = run_expr(
            lambda m: m.iconst(ord("7")).invokestatic(
                "java.lang.Character", "isDigit", "(I)I"))
        assert result == 1
        result, _ = run_expr(
            lambda m: m.iconst(ord("Z")).invokestatic(
                "java.lang.Character", "toLowerCase", "(I)I"))
        assert result == ord("z")
