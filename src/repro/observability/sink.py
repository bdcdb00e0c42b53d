"""The observability sink a VM carries, and its picklable config.

Every :class:`~repro.jvm.machine.JavaVM` owns an ``obs`` attribute —
by default :data:`NULL_SINK`, whose tracer and metrics are shared
no-op singletons.  Hook sites across the interpreter, class loader,
JVMTI host, agents, and harness therefore never test for ``None``;
they call straight through (guarding only hot paths with
``obs.tracer.enabled``).

:class:`ObservabilityConfig` is the picklable request the harness
ships to worker processes (:mod:`repro.harness.parallel`); the worker
builds the live :class:`ObservabilitySink` on its side, and its
capture document travels back as a per-process JSON file merged in
fixed cell order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.observability.metrics import (
    NULL_METRICS,
    MetricsRegistry,
)
from repro.observability.tracer import NULL_TRACER, Tracer


@dataclass(frozen=True)
class ObservabilityConfig:
    """What to record (picklable; carried by RunConfig and CellSpec)."""

    trace: bool = False
    metrics: bool = False

    @property
    def enabled(self) -> bool:
        return self.trace or self.metrics


class ObservabilitySink:
    """Tracer + metrics bundle for one VM run."""

    def __init__(self, config: Optional[ObservabilityConfig] = None):
        config = config or ObservabilityConfig()
        self.config = config
        self.tracer = Tracer() if config.trace else NULL_TRACER
        self.metrics = MetricsRegistry() if config.metrics \
            else NULL_METRICS

    @property
    def enabled(self) -> bool:
        return self.tracer.enabled or self.metrics.enabled

    def capture(self, labels: Optional[Dict] = None,
                clock_hz: int = 0) -> dict:
        """Freeze everything recorded into a JSON-safe document."""
        labels = dict(labels or {})
        return {
            "labels": labels,
            "clock_hz": clock_hz,
            "thread_names": {str(tid): name for tid, name
                             in sorted(self.tracer.thread_names.items())},
            "events": self.tracer.as_doc_events(),
            "metrics": self.metrics.as_records(labels),
        }


#: The do-nothing sink every VM starts with.
NULL_SINK = ObservabilitySink()
