"""The template-tier code cache, one per VM.

Holds the specialized Python functions the translator produced, keyed
by :class:`~repro.jvm.classloader.LoadedMethod` (identity — methods are
per-VM objects): each method's template and, when the template is
structured and a live frame has entered the method at a loop header,
its OSR entry function (the dispatch-form translation, with entry
stubs), counted and sized apart; and, counted and sized apart too, the
counting form a warm method ran before it was hot.  The functions are
per VM, bound to this VM's objects; the plans behind them (source,
code object, OSR map and layout) come from the translator's
per-process plan memo
(:data:`repro.jit.template._plans`), shared by every VM whose method
has the same key.  The cache keeps the generated
source next to each function so failures are debuggable
(``source_for``, ``osr_source_for``), and it is the single place
templates are *invalidated*: when a method keeps deoptimizing past the
policy threshold, :meth:`invalidate` detaches the template (or the
counting form) and its OSR entry function (the method keeps its cost
array, compiled or interpreted — it merely returns to the generic
dispatch loop for good).

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
    #: The layout: nested loops (True) or the dispatch form.
    structured: bool
    active: bool = True
    #: Source of the OSR entry function, once one was made.
    osr_source: Optional[str] = None


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
        #: OSR entry functions made for structured templates, and their
        #: source bytes (not in the two totals above).
        self.osr_installed = 0
        self.osr_source_bytes = 0
        #: Counting forms made for methods not yet hot, and their
        #: source bytes (not in the totals above either).
        self.counting_installed = 0
        self.counting_source_bytes = 0
        self._counting_sources: Dict[object, str] = {}
        #: Call sites whose callee's body a template or OSR entry
        #: function inlines.
        self.inlined_sites = 0
        #: reason -> count, for metrics export.
        self.invalidation_reasons: Dict[str, int] = {}

    def install(self, method, func, source: str) -> None:
        """Attach ``func`` as ``method``'s template."""
        method.template = func
        # the translator publishes the loop headers (pc -> stack depth)
        # as a function attribute; an empty/absent map means the method
        # cannot be OSR-entered.  A dispatch-form template is its own
        # OSR entry function.
        method.osr_map = getattr(func, "osr_map", None) or None
        structured = getattr(func, "structured", False)
        method.osr_template = None if structured else func
        self._entries[method] = CacheEntry(method.qualified_name, source,
                                           structured)
        self.installed += 1
        self.inlined_sites += getattr(func, "inlined", 0)
        size = len(source.encode("utf-8"))
        self.source_bytes += size
        self.largest_source_bytes = max(self.largest_source_bytes, size)

    def install_osr(self, method, func, source: str) -> None:
        """Attach ``func``, the dispatch form of ``method``'s installed
        structured template, as its OSR entry function."""
        method.osr_template = func
        self._entries[method].osr_source = source
        self.osr_installed += 1
        self.inlined_sites += getattr(func, "inlined", 0)
        self.osr_source_bytes += len(source.encode("utf-8"))

    def install_counting(self, method, func, source: str) -> None:
        """Attach ``func`` as ``method``'s counting form: a dispatch
        form, so it is its own OSR entry function too.  Only the tier
        dispatch and the OSR path enter it, always framed."""
        method.counting = func
        method.osr_map = getattr(func, "osr_map", None) or None
        method.osr_template = func
        self._counting_sources[method] = source
        self.counting_installed += 1
        self.counting_source_bytes += len(source.encode("utf-8"))

    def invalidate(self, method, reason: str) -> None:
        """Detach ``method``'s template, or its counting form while it
        is not hot, and its OSR entry function (idempotent)."""
        if method.template is not None:
            method.template = None
            entry = self._entries.get(method)
            if entry is not None:
                entry.active = False
        elif method.counting:
            method.counting = False
        else:
            return
        method.osr_map = None
        method.osr_template = None
        self.invalidated += 1
        self.invalidation_reasons[reason] = \
            self.invalidation_reasons.get(reason, 0) + 1

    def source_for(self, method) -> Optional[str]:
        """Generated source of ``method``'s template (debugging aid)."""
        entry = self._entries.get(method)
        return entry.source if entry is not None else None

    def structured(self, method) -> bool:
        """Whether ``method``'s template has the structured layout."""
        entry = self._entries.get(method)
        return entry is not None and entry.structured

    def osr_source_for(self, method) -> Optional[str]:
        """Generated source of ``method``'s OSR entry function, when a
        structured template needed one (debugging aid)."""
        entry = self._entries.get(method)
        return entry.osr_source if entry is not None else None

    def counting_source_for(self, method) -> Optional[str]:
        """Generated source of ``method``'s counting form, if one was
        made (debugging aid)."""
        return self._counting_sources.get(method)

    def __len__(self) -> int:
        return len(self._entries)
