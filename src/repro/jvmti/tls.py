"""JVMTI thread-local storage.

One value slot per (agent, thread), as in ``SetThreadLocalStorage`` /
``GetThreadLocalStorage``.  Accesses are charged to the *current*
thread as agent work; passing ``thread=None`` means "current thread",
mirroring the JVMTI convention the paper's IPA exploits to avoid
materialising a thread reference.
"""

from __future__ import annotations

from typing import Dict, Optional


class ThreadLocalStorage:
    """Per-agent TLS map."""

    def __init__(self):
        self._storage: Dict[int, object] = {}

    def put(self, thread, value) -> None:
        self._storage[thread.thread_id] = value

    def get(self, thread) -> Optional[object]:
        return self._storage.get(thread.thread_id)
