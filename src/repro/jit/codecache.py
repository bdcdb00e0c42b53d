"""The template-tier code cache, one per VM.

Holds the specialized Python functions the translator produced, keyed
by :class:`~repro.jvm.classloader.LoadedMethod` (identity — methods are
per-VM objects).  The functions are per VM; the code objects behind
them come from the translator's per-process memo
(:func:`repro.jit.template._compile_template`), shared by every VM
whose method generated the same source.  The cache keeps the generated
source next to each function so failures are debuggable
(``source_for``), and it is the single place templates are
*invalidated*: when a method keeps deoptimizing past the policy
threshold, :meth:`invalidate` detaches the template (the method keeps
its cost array, compiled or interpreted — it merely returns to the
generic dispatch loop for good).

Nothing in here touches simulated cycle accounting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional


@dataclass
class CacheEntry:
    """One installed template."""

    qualified_name: str
    source: str
    active: bool = True


class TemplateCodeCache:
    """Installed templates plus lifetime statistics."""

    def __init__(self):
        self._entries: Dict[object, CacheEntry] = {}
        self.installed = 0
        self.invalidated = 0
        #: Generated source, in bytes: the total over every install and
        #: the largest single template (its ``compile()`` sets the
        #: translator's peak memory).
        self.source_bytes = 0
        self.largest_source_bytes = 0
        #: reason -> count, for metrics export.
        self.invalidation_reasons: Dict[str, int] = {}

    def install(self, method, func, source: str) -> None:
        """Attach ``func`` as ``method``'s template."""
        method.template = func
        # the translator publishes the loop-header entry points it
        # generated as a function attribute (loop pc -> block id); an
        # empty/absent map means the template cannot be OSR-entered
        method.osr_map = getattr(func, "osr_map", None) or None
        self._entries[method] = CacheEntry(method.qualified_name, source)
        self.installed += 1
        size = len(source.encode("utf-8"))
        self.source_bytes += size
        self.largest_source_bytes = max(self.largest_source_bytes, size)

    def invalidate(self, method, reason: str) -> None:
        """Detach ``method``'s template (idempotent)."""
        if method.template is None:
            return
        method.template = None
        method.osr_map = None
        entry = self._entries.get(method)
        if entry is not None:
            entry.active = False
        self.invalidated += 1
        self.invalidation_reasons[reason] = \
            self.invalidation_reasons.get(reason, 0) + 1

    def source_for(self, method) -> Optional[str]:
        """Generated source of ``method``'s template (debugging aid)."""
        entry = self._entries.get(method)
        return entry.source if entry is not None else None

    def __len__(self) -> int:
        return len(self._entries)
