"""Per-thread cycle counters (the paper's PCL dependency).

The real PCL virtualizes the CPU's timestamp counter per thread (on
Linux of that era this needed a kernel patch).  Here the virtualization
is exact by construction: every simulated thread owns its cycle counter
and only accumulates cycles while it runs.  Reading the counter is not
free — ``rdtsc`` plus the per-thread virtualization costs
``cost_model.pcl_read`` cycles, charged to the reading thread — which is
precisely the measurement perturbation the paper's agents try to
minimise (SPA reads only on transitions; IPA compensates wrapper time).
"""

from __future__ import annotations

from repro.errors import ReproError
from repro.jvm.costmodel import ChargeTag


class PCL:
    """Cycle-counter access for one VM."""

    def __init__(self, vm):
        self._vm = vm

    def get_timestamp(self, thread=None,
                      tag: ChargeTag = ChargeTag.AGENT) -> int:
        """Read the per-thread cycle counter.

        ``thread=None`` reads the current thread (the common case — the
        paper's IPA avoids materialising a thread reference).  The read
        cost is charged *before* sampling, so the returned value
        includes it, as a real back-to-back rdtsc pair would observe.
        """
        vm = self._vm
        if thread is None:
            thread = vm.threads.current
            if thread is None:
                raise ReproError("PCL read with no current thread")
        thread.charge(vm.cost_model.pcl_read, tag)
        vm.pcl_reads += 1
        return thread.cycles_total

    def peek(self, thread) -> int:
        """Zero-cost counter read for host-side assertions (not part of
        the simulated API)."""
        return thread.cycles_total
