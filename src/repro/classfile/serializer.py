"""Binary serialization of class files.

The format (``.rjc`` — "repro java class") plays the role of ``.class``
files: the static instrumenter reads serialized classes, transforms
them, and writes them back, exactly as the paper's ASM tool did.

Layout (big-endian):

* magic ``RJCF`` + u2 version
* class name (utf), super name (utf, empty string for none), u2 flags
* constant pool: u2 count, then tagged entries
* fields: u2 count, then (utf name, u2 flags, tagged default)
* methods: u2 count, then (utf name, utf descriptor, u2 flags,
  u2 max_locals, u1 has_code, [code], [exception table])

Code is stored as u4 instruction count followed by one ``u1`` opcode and
an operand encoded per the opcode's operand kind.  Branch operands must
be *resolved* (integer instruction indices) before serialization.
"""

from __future__ import annotations

import functools
import struct
import threading
from typing import Optional

from repro.bytecode.instructions import ExceptionEntry, Instruction
from repro.bytecode.opcodes import ArrayKind, Op, OperandKind, SPECS
from repro.classfile.classfile import ClassFile
from repro.classfile.constant_pool import (
    CpClass,
    CpFieldRef,
    CpFloat,
    CpInt,
    CpMethodRef,
    CpString,
)
from repro.classfile.members import FieldInfo, MethodInfo
from repro.errors import ClassFileError

MAGIC = b"RJCF"
VERSION = 1

_CP_TAGS = {CpInt: 1, CpFloat: 2, CpString: 3, CpClass: 4, CpFieldRef: 5,
            CpMethodRef: 6}


class _Writer:
    def __init__(self):
        self._chunks = []

    def bytes_(self, b: bytes):
        self._chunks.append(b)

    def u1(self, v: int):
        self._chunks.append(struct.pack(">B", v))

    def u2(self, v: int):
        self._chunks.append(struct.pack(">H", v))

    def u4(self, v: int):
        self._chunks.append(struct.pack(">I", v))

    def s4(self, v: int):
        self._chunks.append(struct.pack(">i", v))

    def s8(self, v: int):
        self._chunks.append(struct.pack(">q", v))

    def f8(self, v: float):
        self._chunks.append(struct.pack(">d", v))

    def utf(self, s: str):
        data = s.encode("utf-8")
        if len(data) > 0xFFFF:
            raise ClassFileError("utf string too long to serialize")
        self.u2(len(data))
        self.bytes_(data)

    def getvalue(self) -> bytes:
        return b"".join(self._chunks)


class _Reader:
    def __init__(self, data: bytes):
        self._data = data
        self._pos = 0

    def bytes_(self, n: int) -> bytes:
        if self._pos + n > len(self._data):
            raise ClassFileError("truncated class file")
        out = self._data[self._pos:self._pos + n]
        self._pos += n
        return out

    def u1(self) -> int:
        return struct.unpack(">B", self.bytes_(1))[0]

    def u2(self) -> int:
        return struct.unpack(">H", self.bytes_(2))[0]

    def u4(self) -> int:
        return struct.unpack(">I", self.bytes_(4))[0]

    def s4(self) -> int:
        return struct.unpack(">i", self.bytes_(4))[0]

    def s8(self) -> int:
        return struct.unpack(">q", self.bytes_(8))[0]

    def f8(self) -> float:
        return struct.unpack(">d", self.bytes_(8))[0]

    def utf(self) -> str:
        n = self.u2()
        try:
            return self.bytes_(n).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ClassFileError(f"malformed utf string: {exc.reason}") \
                from None

    @property
    def exhausted(self) -> bool:
        return self._pos >= len(self._data)


def _dump_value(w: _Writer, value) -> None:
    if value is None:
        w.u1(0)
    elif isinstance(value, bool):
        raise ClassFileError("bool is not a serializable default value")
    elif isinstance(value, int):
        w.u1(1)
        w.s8(value)
    elif isinstance(value, float):
        w.u1(2)
        w.f8(value)
    elif isinstance(value, str):
        w.u1(3)
        w.utf(value)
    else:
        raise ClassFileError(
            f"unserializable default value {value!r}")


def _load_value(r: _Reader):
    tag = r.u1()
    if tag == 0:
        return None
    if tag == 1:
        return r.s8()
    if tag == 2:
        return r.f8()
    if tag == 3:
        return r.utf()
    raise ClassFileError(f"bad value tag {tag}")


def _dump_cp(w: _Writer, cf: ClassFile) -> None:
    pool = cf.constant_pool
    w.u2(len(pool))
    for _, entry in pool.entries():
        tag = _CP_TAGS[type(entry)]
        w.u1(tag)
        if isinstance(entry, CpInt):
            w.s8(entry.value)
        elif isinstance(entry, CpFloat):
            w.f8(entry.value)
        elif isinstance(entry, CpString):
            w.utf(entry.value)
        elif isinstance(entry, CpClass):
            w.utf(entry.name)
        elif isinstance(entry, CpFieldRef):
            w.utf(entry.class_name)
            w.utf(entry.field_name)
        else:  # CpMethodRef
            w.utf(entry.class_name)
            w.utf(entry.method_name)
            w.utf(entry.descriptor)


def _load_cp(r: _Reader, cf: ClassFile) -> None:
    count = r.u2()
    for _ in range(count):
        tag = r.u1()
        if tag == 1:
            entry = CpInt(r.s8())
        elif tag == 2:
            entry = CpFloat(r.f8())
        elif tag == 3:
            entry = CpString(r.utf())
        elif tag == 4:
            entry = CpClass(r.utf())
        elif tag == 5:
            entry = CpFieldRef(r.utf(), r.utf())
        elif tag == 6:
            entry = CpMethodRef(r.utf(), r.utf(), r.utf())
        else:
            raise ClassFileError(f"bad constant-pool tag {tag}")
        cf.constant_pool.add(entry)


def _dump_instruction(w: _Writer, ins: Instruction) -> None:
    w.u1(int(ins.op))
    kind = SPECS[ins.op].operand
    if kind is OperandKind.NONE:
        return
    if kind is OperandKind.IMM:
        w.s8(ins.operand)
    elif kind in (OperandKind.LOCAL, OperandKind.CP):
        w.u2(ins.operand)
    elif kind is OperandKind.LABEL:
        if not isinstance(ins.operand, int):
            raise ClassFileError(
                f"cannot serialize unresolved branch target "
                f"{ins.operand!r}; assemble the method first")
        w.s4(ins.operand)
    elif kind is OperandKind.ARRAY_KIND:
        w.u1(int(ins.operand))
    elif kind is OperandKind.IINC:
        idx, delta = ins.operand
        w.u2(idx)
        w.s4(delta)
    else:  # pragma: no cover - exhaustive
        raise ClassFileError(f"unhandled operand kind {kind}")


def _load_instruction(r: _Reader) -> Instruction:
    raw = r.u1()
    try:
        op = Op(raw)
    except ValueError:
        raise ClassFileError(f"unknown opcode byte 0x{raw:02x}")
    kind = SPECS[op].operand
    if kind is OperandKind.NONE:
        return Instruction(op)
    if kind is OperandKind.IMM:
        return Instruction(op, r.s8())
    if kind in (OperandKind.LOCAL, OperandKind.CP):
        return Instruction(op, r.u2())
    if kind is OperandKind.LABEL:
        return Instruction(op, r.s4())
    if kind is OperandKind.ARRAY_KIND:
        raw_kind = r.u1()
        try:
            return Instruction(op, ArrayKind(raw_kind))
        except ValueError:
            raise ClassFileError(f"unknown array kind {raw_kind}") from None
    if kind is OperandKind.IINC:
        idx = r.u2()
        delta = r.s4()
        return Instruction(op, (idx, delta))
    raise ClassFileError(f"unhandled operand kind {kind}")  # pragma: no cover


def _dump_method(w: _Writer, m: MethodInfo) -> None:
    w.utf(m.name)
    w.utf(m.descriptor)
    w.u2(m.flags)
    w.u2(m.max_locals)
    if m.code is None:
        w.u1(0)
        return
    w.u1(1)
    w.u4(len(m.code))
    for ins in m.code:
        _dump_instruction(w, ins)
    w.u2(len(m.exception_table))
    for entry in m.exception_table:
        for value in (entry.start, entry.end, entry.handler):
            if not isinstance(value, int):
                raise ClassFileError(
                    "cannot serialize unresolved exception-table labels")
            w.u4(value)
        w.utf(entry.catch_type or "")


def _load_method(r: _Reader) -> MethodInfo:
    name = r.utf()
    descriptor = r.utf()
    flags = r.u2()
    max_locals = r.u2()
    has_code = r.u1()
    if not has_code:
        return MethodInfo(name, descriptor, flags, max_locals, code=None)
    count = r.u4()
    code = [_load_instruction(r) for _ in range(count)]
    table = []
    for _ in range(r.u2()):
        start = r.u4()
        end = r.u4()
        handler = r.u4()
        catch = r.utf()
        table.append(ExceptionEntry(start, end, handler, catch or None))
    return MethodInfo(name, descriptor, flags, max_locals, code=code,
                      exception_table=table)


def dump_class(cf: ClassFile) -> bytes:
    """Serialize ``cf`` to bytes."""
    w = _Writer()
    w.bytes_(MAGIC)
    w.u2(VERSION)
    w.utf(cf.name)
    w.utf(cf.super_name or "")
    w.u2(cf.flags)
    _dump_cp(w, cf)
    w.u2(len(cf.fields))
    for f in cf.fields:
        w.utf(f.name)
        w.u2(f.flags)
        _dump_value(w, f.default)
    w.u2(len(cf.methods))
    for m in cf.methods:
        _dump_method(w, m)
    return w.getvalue()


def load_class(data: bytes) -> ClassFile:
    """Deserialize a class file from bytes."""
    r = _Reader(data)
    if r.bytes_(4) != MAGIC:
        raise ClassFileError("bad magic: not a repro class file")
    version = r.u2()
    if version != VERSION:
        raise ClassFileError(
            f"unsupported class-file version {version} (expected {VERSION})")
    name = r.utf()
    super_name: Optional[str] = r.utf() or None
    flags = r.u2()
    cf = ClassFile(name, super_name, flags)
    _load_cp(r, cf)
    for _ in range(r.u2()):
        fname = r.utf()
        fflags = r.u2()
        default = _load_value(r)
        cf.add_field(FieldInfo(fname, fflags, default))
    for _ in range(r.u2()):
        cf.add_method(_load_method(r))
    if not r.exhausted:
        raise ClassFileError("trailing bytes after class file")
    return cf


#: Bound on :func:`shared_class`'s memo, in distinct class byte strings.
#: Tables I and II load 44, so it only caps a process that parses an
#: unbounded stream of distinct classes.
_SHARED_MEMO_SIZE = 1024


#: Held across each lookup, so host threads that miss the same bytes at
#: once parse them once and share that object (parsing holds the GIL
#: anyway, so one lock for every key costs nothing).
_shared_lock = threading.Lock()


@functools.lru_cache(maxsize=_SHARED_MEMO_SIZE)
def _shared(data: bytes) -> ClassFile:
    return load_class(data)


def shared_class(data: bytes) -> ClassFile:
    """``load_class(data)``, once per process per distinct ``data``.

    Every caller in the process (each VM's class loader, the static
    analyses, on any host thread) gets the same object and must treat
    it as read-only; a caller that transforms a class parses its own
    copy with :func:`load_class`.  Errors are not memoized.
    ``load_class`` is looked up by its module-global name on each miss,
    so a wrapper installed there sees exactly the misses.
    ``cache_info()``/``cache_clear()`` are the memo's.
    """
    with _shared_lock:
        return _shared(data)


shared_class.cache_info = _shared.cache_info
shared_class.cache_clear = _shared.cache_clear
