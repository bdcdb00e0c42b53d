"""JVMTI raw monitors.

In the sequential execution model a raw monitor can never be contended,
but entering/exiting still costs cycles — the synchronization price the
paper's agents pay when folding per-thread statistics into globals at
thread termination.
"""

from __future__ import annotations

from repro.errors import JVMTIError


class RawMonitor:
    """One named raw monitor."""

    def __init__(self, name: str):
        self.name = name
        self._owner = None
        self._count = 0

    def enter(self, thread) -> None:
        if self._owner is not None and self._owner is not thread:
            raise JVMTIError(
                f"raw monitor {self.name!r} contended in sequential "
                f"model ({self._owner.name} vs {thread.name})")
        self._owner = thread
        self._count += 1

    def exit(self, thread) -> None:
        if self._owner is not thread:
            raise JVMTIError(
                f"raw monitor {self.name!r} exited by non-owner "
                f"{thread.name}")
        self._count -= 1
        if self._count == 0:
            self._owner = None

    @property
    def held(self) -> bool:
        return self._owner is not None
