"""Heap: object and array allocation and string interning."""

from __future__ import annotations

from typing import Dict

from repro.bytecode.opcodes import ArrayKind
from repro.errors import VMError
from repro.jvm.values import JArray, JObject

STRING_CLASS = "java.lang.String"


class Heap:
    """Allocates simulated objects.  Purely bookkeeping — there is no
    garbage collector (workloads are sized to fit comfortably in host
    memory; the paper's phenomena do not involve GC)."""

    def __init__(self):
        self._next_id = 1
        self._intern_table: Dict[str, JObject] = {}

    def _take_id(self) -> int:
        object_id = self._next_id
        self._next_id += 1
        return object_id

    def alloc_object(self, loaded_class) -> JObject:
        """Allocate an instance of ``loaded_class`` with default fields."""
        fields = dict(loaded_class.instance_field_defaults)
        return JObject(loaded_class, fields, self._take_id())

    def alloc_array(self, kind: ArrayKind, length: int) -> JArray:
        """Allocate an array.  Raises for negative lengths (the
        interpreter converts that into ``NegativeArraySizeException``)."""
        if length < 0:
            raise VMError(f"negative array length {length}")
        return JArray(kind, length, self._take_id())

    def new_string(self, string_class, value: str) -> JObject:
        """Allocate a ``java.lang.String`` with payload ``value``."""
        if string_class.name != STRING_CLASS:
            raise VMError(
                f"new_string requires {STRING_CLASS}, got "
                f"{string_class.name}")
        fields = dict(string_class.instance_field_defaults)
        return JObject(string_class, fields, self._take_id(),
                       string_value=value)

    def intern(self, string_class, value: str) -> JObject:
        """Return the canonical string object for ``value``."""
        interned = self._intern_table.get(value)
        if interned is None:
            interned = self.new_string(string_class, value)
            self._intern_table[value] = interned
        return interned

    @property
    def intern_table_size(self) -> int:
        return len(self._intern_table)

    def reset(self) -> None:
        """Forget per-run allocations; keep the intern table.

        Used by the warm-VM service between requests.  The heap is pure
        bookkeeping (objects live as long as something references them),
        so resetting **in place** is what matters: template-tier code
        binds this very ``Heap`` instance into its generated closures,
        and interned strings are bound by identity at ``LDC`` sites —
        both must survive a reset.  ``object_id``s restart, so a warm
        request numbers its objects as the first did.  They are debug
        labels with one exception: the race sanitizer keys monitor
        release clocks by ``object_id`` — safe only because warm-pool
        VMs are always built with ``sanitize="off"`` (a sanitizing
        request runs cold, like ``cores > 1``).
        """
        self._next_id = 1
