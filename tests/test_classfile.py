"""Class-file layer: constant pool, members, model, serializer,
archives."""

import pytest

from repro.bytecode.assembler import ClassAssembler
from repro.bytecode.opcodes import ArrayKind, Op
from repro.classfile.archive import ClassArchive
from repro.classfile.classfile import ClassFile
from repro.classfile.constant_pool import (
    ConstantPool,
    CpClass,
    CpFieldRef,
    CpFloat,
    CpInt,
    CpMethodRef,
    CpString,
)
from repro.classfile.members import (
    ACC_NATIVE,
    ACC_STATIC,
    FieldInfo,
    MethodInfo,
    arg_slot_count,
    parse_descriptor,
)
from repro.classfile.serializer import dump_class, load_class
from repro.errors import ClassFileError, ConstantPoolError


class TestConstantPool:
    def test_indices_are_one_based_and_stable(self):
        pool = ConstantPool()
        first = pool.add(CpInt(10))
        second = pool.add(CpString("x"))
        assert (first, second) == (1, 2)
        assert pool.get(1) == CpInt(10)

    def test_deduplication(self):
        pool = ConstantPool()
        a = pool.add(CpMethodRef("C", "m", "()V"))
        b = pool.add(CpMethodRef("C", "m", "()V"))
        assert a == b
        assert len(pool) == 1

    def test_distinct_types_not_conflated(self):
        pool = ConstantPool()
        a = pool.add(CpInt(1))
        b = pool.add(CpFloat(1.0))
        assert a != b

    def test_index_zero_invalid(self):
        pool = ConstantPool()
        pool.add(CpInt(1))
        with pytest.raises(ConstantPoolError):
            pool.get(0)

    def test_out_of_range(self):
        pool = ConstantPool()
        with pytest.raises(ConstantPoolError):
            pool.get(1)

    def test_typed_access(self):
        pool = ConstantPool()
        index = pool.add(CpClass("C"))
        assert pool.get_typed(index, CpClass).name == "C"
        with pytest.raises(ConstantPoolError):
            pool.get_typed(index, CpFieldRef)

    def test_rejects_non_entries(self):
        pool = ConstantPool()
        with pytest.raises(ConstantPoolError):
            pool.add("not an entry")

    def test_copy_is_independent(self):
        pool = ConstantPool()
        pool.add(CpInt(1))
        clone = pool.copy()
        clone.add(CpInt(2))
        assert len(pool) == 1
        assert len(clone) == 2


class TestDescriptors:
    def test_simple(self):
        assert parse_descriptor("(II)I") == (["I", "I"], "I")

    def test_refs_and_arrays(self):
        params, ret = parse_descriptor(
            "(Ljava.lang.String;[B[[I)V")
        assert params == ["Ljava.lang.String;", "[B", "[[I"]
        assert ret == "V"

    def test_all_primitive_letters(self):
        params, _ = parse_descriptor("(IFBCZSJD)V")
        assert len(params) == 8

    def test_arg_slot_count(self):
        assert arg_slot_count("()V") == 0
        assert arg_slot_count("(I[CLjava.lang.Object;)I") == 3

    @pytest.mark.parametrize("bad", [
        "II)I", "(II", "(II)", "(Q)V", "(L)V", "(Lfoo)V", "([)V",
        "()Ix",
    ])
    def test_malformed_rejected(self, bad):
        with pytest.raises(ClassFileError):
            parse_descriptor(bad)


class TestMembers:
    def test_native_method_must_not_have_code(self):
        with pytest.raises(ClassFileError):
            MethodInfo("n", "()V", ACC_NATIVE, code=[])

    def test_bytecode_method_must_have_code(self):
        with pytest.raises(ClassFileError):
            MethodInfo("f", "()V", ACC_STATIC, code=None)

    def test_arg_slots_include_receiver(self):
        from repro.bytecode.instructions import Instruction

        instance = MethodInfo("m", "(I)V", 0,
                              code=[Instruction(Op.RETURN)])
        static = MethodInfo("s", "(I)V", ACC_STATIC,
                            code=[Instruction(Op.RETURN)])
        assert instance.arg_slots == 2
        assert static.arg_slots == 1

    def test_field_staticness(self):
        assert FieldInfo("x", ACC_STATIC).is_static
        assert not FieldInfo("y").is_static


class TestClassFileModel:
    def test_object_root_has_no_super(self):
        cf = ClassFile("java.lang.Object")
        assert cf.super_name is None

    def test_other_classes_need_super(self):
        with pytest.raises(ClassFileError):
            ClassFile("a.B", super_name=None)

    def test_duplicate_member_rejected(self):
        cf = ClassFile("a.C")
        cf.add_field(FieldInfo("x"))
        with pytest.raises(ClassFileError):
            cf.add_field(FieldInfo("x"))

    def test_method_overloads_allowed(self):
        c = ClassAssembler("a.D")
        with c.method("f", "(I)V", static=True) as m:
            m.return_()
        with c.method("f", "(II)V", static=True) as m:
            m.return_()
        cf = c.build()
        assert cf.find_method("f", "(I)V") is not None
        assert cf.find_method("f", "(II)V") is not None

    def test_native_method_listing(self):
        c = ClassAssembler("a.E")
        c.native_method("n1", "()V", static=True)
        with c.method("f", "()V", static=True) as m:
            m.return_()
        cf = c.build()
        assert [m.name for m in cf.native_methods()] == ["n1"]
        assert cf.has_native_methods()

    def test_remove_method(self):
        c = ClassAssembler("a.F")
        info = c.native_method("n", "()V", static=True)
        cf = c.build()
        cf.remove_method(info)
        assert cf.find_method("n", "()V") is None


def _rich_class() -> ClassFile:
    c = ClassAssembler("ser.Rich", super_name="java.lang.Object")
    c.field("count", static=True, default=41)
    c.field("label", default=None)
    c.field("ratio", default=0.5)
    c.field("title", default="hello")
    c.native_method("nat", "(I[B)I", static=True)
    with c.method("f", "(I)I", static=True) as m:
        m.label("top")
        m.iload(0).iconst(1).isub().istore(0)
        m.iload(0).ifgt("top")
        m.ldc("text").invokevirtual("java.lang.String", "length",
                                    "()I")
        m.pop()
        m.ldc(2.5).pop()
        m.iconst(4).newarray(ArrayKind.BYTE).pop()
        m.iinc(0, 7)
        m.getstatic("ser.Rich", "count")
        m.ireturn()
        m.label("h")
        m.pop().iconst(0).ireturn()
        m.try_catch("top", "h", "h", "java.lang.Exception")
    return c.build(verify=False)


def _mutate(data: bytearray, rng) -> bytes:
    """Apply 1-4 random bit flips, byte deletions or truncations."""
    for _ in range(rng.randint(1, 4)):
        kind = rng.randrange(3)
        if not data:
            break
        if kind == 0:
            data[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
        elif kind == 1:
            del data[rng.randrange(len(data))]
        else:
            del data[rng.randrange(len(data)):]
    return bytes(data)


class TestSerializer:
    def test_roundtrip_preserves_everything(self):
        cf = _rich_class()
        clone = load_class(dump_class(cf))
        assert clone.name == cf.name
        assert clone.super_name == cf.super_name
        assert [f.name for f in clone.fields] == \
            [f.name for f in cf.fields]
        assert clone.find_field("count").default == 41
        assert clone.find_field("ratio").default == 0.5
        assert clone.find_field("title").default == "hello"
        original = cf.find_method("f", "(I)I")
        loaded = clone.find_method("f", "(I)I")
        assert [i.op for i in loaded.code] == \
            [i.op for i in original.code]
        assert [i.operand for i in loaded.code] == \
            [i.operand for i in original.code]
        assert loaded.exception_table == original.exception_table
        assert clone.find_method("nat", "(I[B)I").is_native

    def test_constant_pool_roundtrip(self):
        cf = _rich_class()
        clone = load_class(dump_class(cf))
        originals = dict(cf.constant_pool.entries())
        cloned = dict(clone.constant_pool.entries())
        assert originals == cloned

    def test_bad_magic_rejected(self):
        with pytest.raises(ClassFileError, match="magic"):
            load_class(b"XXXX" + b"\x00" * 16)

    def test_truncation_rejected(self):
        data = dump_class(_rich_class())
        with pytest.raises(ClassFileError):
            load_class(data[:len(data) // 2])

    def test_trailing_bytes_rejected(self):
        data = dump_class(_rich_class())
        with pytest.raises(ClassFileError, match="trailing"):
            load_class(data + b"\x00")

    def test_unresolved_labels_cannot_serialize(self):
        from repro.bytecode.instructions import Instruction

        cf = ClassFile("ser.Bad")
        cf.add_method(MethodInfo(
            "f", "()V", ACC_STATIC,
            code=[Instruction(Op.GOTO, "loop")]))
        with pytest.raises(ClassFileError, match="unresolved"):
            dump_class(cf)

    def test_bad_utf_rejected(self):
        data = bytearray(dump_class(_rich_class()))
        # the class name follows magic (4) + version (2) + its length (2)
        data[8] = 0xFF
        with pytest.raises(ClassFileError, match="utf"):
            load_class(bytes(data))

    def test_corrupt_class_bytes_fail_structurally(self):
        """Seeded mutation fuzz over db's classes: 1-4 byte flips,
        deletions or truncations per mutant.  Every mutant loads or
        raises ClassFileError; no raw Python exception escapes."""
        import random

        from repro.workloads import get_workload

        blobs = [dump_class(cf)
                 for cf in get_workload("db").archive.classes()]
        rng = random.Random(20061)
        outcomes = {"loaded": 0, "rejected": 0}
        for _ in range(600):
            data = _mutate(bytearray(rng.choice(blobs)), rng)
            try:
                load_class(data)
                outcomes["loaded"] += 1
            except ClassFileError:
                outcomes["rejected"] += 1
        assert sum(outcomes.values()) == 600
        assert outcomes["rejected"] > outcomes["loaded"] > 0


class TestArchive:
    def test_roundtrip(self):
        archive = ClassArchive()
        archive.put_class(_rich_class())
        c2 = ClassAssembler("ser.Other")
        with c2.method("g", "()V", static=True) as m:
            m.return_()
        archive.put_class(c2.build())
        clone = ClassArchive.from_bytes(archive.to_bytes())
        assert clone.names() == ["ser.Rich", "ser.Other"]
        assert clone.get_class("ser.Other").find_method(
            "g", "()V") is not None

    def test_missing_entry(self):
        archive = ClassArchive()
        with pytest.raises(ClassFileError):
            archive.get_bytes("nope")

    def test_name_mismatch_detected(self):
        archive = ClassArchive()
        archive.put_bytes("wrong.Name", dump_class(_rich_class()))
        with pytest.raises(ClassFileError, match="contains class"):
            archive.get_class("wrong.Name")

    def test_save_and_load(self, tmp_path):
        archive = ClassArchive()
        archive.put_class(_rich_class())
        path = tmp_path / "classes.rja"
        archive.save(path)
        assert ClassArchive.load(path).names() == ["ser.Rich"]

    def test_bad_magic(self):
        with pytest.raises(ClassFileError, match="magic"):
            ClassArchive.from_bytes(b"NOPE\x00\x01\x00\x00\x00\x00")

    @pytest.mark.parametrize("blob", [
        b"RJAR\x00",                      # version cut short
        b"RJAR\x00\x01\x00\x00\x00",       # count cut short
    ])
    def test_short_header_rejected(self, blob):
        with pytest.raises(ClassFileError, match="truncated"):
            ClassArchive.from_bytes(blob)

    def test_non_utf8_entry_name_rejected(self):
        archive = ClassArchive()
        archive.put_class(_rich_class())
        data = bytearray(archive.to_bytes())
        # the first name follows magic (4) + version (2) + count (4)
        # + its length (2)
        data[12] = 0xFF
        with pytest.raises(ClassFileError, match="utf-8"):
            ClassArchive.from_bytes(bytes(data))

    def test_corrupt_archives_fail_structurally(self):
        """Seeded mutation fuzz over db's whole archive: 1-4 byte
        flips, deletions or truncations per mutant.  Every mutant
        parses or raises ClassFileError; no raw Python exception
        escapes the container parser."""
        import random

        from repro.workloads import get_workload

        blob = get_workload("db").archive.to_bytes()
        rng = random.Random(20062)
        outcomes = {"parsed": 0, "rejected": 0}
        for _ in range(3000):
            try:
                ClassArchive.from_bytes(_mutate(bytearray(blob), rng))
                outcomes["parsed"] += 1
            except ClassFileError:
                outcomes["rejected"] += 1
        assert sum(outcomes.values()) == 3000
        assert outcomes["parsed"] > 0 and outcomes["rejected"] > 0

    def test_iteration(self):
        archive = ClassArchive()
        archive.put_class(_rich_class())
        assert [cf.name for cf in archive.classes()] == ["ser.Rich"]
        assert "ser.Rich" in archive
        assert len(archive) == 1
