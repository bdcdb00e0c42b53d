"""Runtime values of the simulated JVM.

* numbers — plain Python ints and floats (one slot each);
* ``null`` — Python ``None`` (exported as :data:`NULL` for readability);
* objects — :class:`JObject`: a class reference plus a field map.
  ``java.lang.String`` instances additionally carry an immutable Python
  ``str`` payload that only native code can touch (bytecode reaches it
  through native methods, mirroring how real string internals are opaque
  to our ISA);
* arrays — :class:`JArray` with an element :class:`ArrayKind`; stores are
  normalised per kind (byte arrays wrap to signed 8-bit, char arrays to
  unsigned 16-bit, int arrays to signed 32-bit like Java ``int``).
"""

from __future__ import annotations

from typing import List, Optional

from repro.bytecode.opcodes import ArrayKind
from repro.errors import VMError

#: The Java ``null`` reference.
NULL = None

_INT_MIN = -(1 << 31)
_INT_MASK = (1 << 32) - 1


def wrap_int32(value: int) -> int:
    """Wrap a Python int to Java 32-bit signed int semantics."""
    value &= _INT_MASK
    if value >= 1 << 31:
        value -= 1 << 32
    return value


def wrap_int8(value: int) -> int:
    """Wrap to Java ``byte`` (signed 8-bit)."""
    value &= 0xFF
    if value >= 0x80:
        value -= 0x100
    return value


def wrap_char(value: int) -> int:
    """Wrap to Java ``char`` (unsigned 16-bit)."""
    return value & 0xFFFF


class JObject:
    """One heap object: its class and its instance fields.

    ``fields`` is pre-populated with declared defaults by the heap.
    ``string_value`` is non-None only for ``java.lang.String`` instances.
    ``monitor_owner``/``monitor_count`` implement the object's monitor.
    """

    __slots__ = ("jclass", "fields", "string_value", "object_id",
                 "monitor_owner", "monitor_count", "monitor_waiters",
                 "shadow")

    def __init__(self, jclass, fields: dict, object_id: int,
                 string_value: Optional[str] = None):
        self.jclass = jclass
        self.fields = fields
        self.string_value = string_value
        self.object_id = object_id
        self.monitor_owner = None
        self.monitor_count = 0
        # FIFO of SimThreads blocked on this monitor; lazily created by
        # the preemptive scheduler (always None at cores=1)
        self.monitor_waiters = None
        # per-field shadow words, lazily created by the race sanitizer
        # (always None when --sanitize is off)
        self.shadow = None

    @property
    def class_name(self) -> str:
        return self.jclass.name

    def __repr__(self):  # pragma: no cover - debug aid
        if self.string_value is not None:
            return f"<JString {self.string_value!r}>"
        return f"<JObject {self.class_name}#{self.object_id}>"


class JArray:
    """One heap array: element kind plus backing storage."""

    __slots__ = ("kind", "data", "object_id", "monitor_owner",
                 "monitor_count", "monitor_waiters")

    def __init__(self, kind: ArrayKind, length: int, object_id: int):
        if length < 0:
            raise VMError(f"negative array length {length}")
        self.kind = kind
        if kind is ArrayKind.FLOAT:
            self.data: List = [0.0] * length
        elif kind is ArrayKind.REF:
            self.data = [NULL] * length
        else:
            self.data = [0] * length
        self.object_id = object_id
        self.monitor_owner = None
        self.monitor_count = 0
        self.monitor_waiters = None

    def __len__(self) -> int:
        return len(self.data)

    def normalize(self, value):
        """Coerce ``value`` to this array's element domain."""
        kind = self.kind
        if kind is ArrayKind.INT:
            return wrap_int32(int(value))
        if kind is ArrayKind.BYTE:
            return wrap_int8(int(value))
        if kind is ArrayKind.CHAR:
            return wrap_char(int(value))
        if kind is ArrayKind.FLOAT:
            return float(value)
        return value  # REF

    def __repr__(self):  # pragma: no cover - debug aid
        return f"<JArray {self.kind.name.lower()}[{len(self.data)}]>"


def is_reference(value) -> bool:
    """True for values a reference slot may hold (objects, arrays, null)."""
    return value is NULL or isinstance(value, (JObject, JArray))
