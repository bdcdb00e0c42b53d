"""Helpers shared by the benchmark's runner, worker and comparison tool.

Every metric name, unit, direction and bound comes from the
``BENCHMARK.json`` at the root of the checkout, so the runner, the
comparison tool and the tests agree on one list.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import statistics
import threading
import time
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple

#: Root of the checkout: the directory holding ``bench/`` and ``src/``.
ROOT = Path(__file__).resolve().parent.parent
REFERENCE_PATH = ROOT / "bench" / "reference.json"

#: End-to-end times are reported in seconds of a reference host on
#: which :func:`probe` takes exactly this long.  A shared host's speed
#: drifts by up to ~1.8x over seconds, so each op's time is scaled by
#: ``PROBE_REFERENCE_S`` over the probe times around it
#: (:meth:`HostSpeed.factor`).
PROBE_REFERENCE_S = 0.002


def probe() -> float:
    """Time a fixed pure-Python loop: the host-speed yardstick.  It
    shares no code with the simulator, so a change to the simulator
    cannot move it.  Five slices, scaled up from their median, so one
    interrupted slice does not count."""
    slices = []
    for _ in range(5):
        started = time.perf_counter()
        table: Dict[int, int] = {}
        for i in range(4000):
            table[i & 255] = table.get(i & 255, 0) + i
        slices.append(time.perf_counter() - started)
    return 5 * statistics.median(slices)


class HostSpeed:
    """The host-speed probes of one process: ``(taken_at, seconds)``.

    :meth:`take` probes now (the workloads call it between ops, when no
    simulator work runs).  :meth:`start` also probes every
    ``SAMPLE_INTERVAL_S`` on a background thread, so an op that lasts
    a second is scaled by the speed of the host while it ran, not only
    by the speed before and after it.  The thread takes about 2 ms of
    every 0.1 s (ops took about 3% longer with it), a share that does
    not depend on what an op does.
    """

    SAMPLE_INTERVAL_S = 0.1

    def __init__(self, first: Tuple[float, float]):
        self.probes = [first]
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def take(self) -> None:
        self.probes.append((time.perf_counter(), probe()))

    def start(self) -> None:
        self._thread = threading.Thread(target=self._sample, daemon=True,
                                        name="host-speed")
        self._thread.start()

    def stop(self) -> None:
        if self._thread is not None:
            self._stop.set()
            self._thread.join()
            self._thread = None

    def _sample(self) -> None:
        while not self._stop.wait(self.SAMPLE_INTERVAL_S):
            self.take()

    def factor(self, start: float, end: float) -> float:
        """Scale from host seconds to reference seconds for work done in
        ``[start, end]``: the mean of the probes from the last one
        before ``start`` to the first one after ``end`` (the mean, so
        that a slow stretch weighs by how long it lasted)."""
        probes = sorted(self.probes)
        times = [taken for taken, _ in probes]
        first = max(bisect.bisect_right(times, start) - 1, 0)
        last = min(bisect.bisect_left(times, end), len(probes) - 1)
        window = [seconds for _, seconds in probes[first:last + 1]]
        return PROBE_REFERENCE_S / statistics.mean(window)


#: End-to-end metrics gated on only some workloads, with those
#: workloads.  Every run reports every metric, but on the others these
#: repeat a gated row: a batch workload's ``saturation_rps`` and
#: serve-warm's ``instr_per_s`` are another gated rate times a constant
#: (every pass runs the same fixed programs), and a batch workload's
#: ``latency_p50_ms`` (per-program medians) moves with its
#: ``instr_per_s``.
GATED = {
    "instr_per_s": ("steady-jvm98", "paper-tables", "cold-start"),
    "saturation_rps": ("serve-warm",),
    "latency_p50_ms": ("serve-warm",),
}


def gated(metric: str, workload: str) -> bool:
    """Whether ``bench/compare.py`` gives ``metric`` a row on
    ``workload``."""
    return workload in GATED.get(metric, (workload,))


def load_spec() -> Dict:
    """The parsed ``BENCHMARK.json``."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def percentile(values: Sequence[float], percent: int) -> float:
    """Linear-interpolation percentile (``percent`` in 1..99)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100,
                                method="inclusive")[percent - 1]


def summary(values: Sequence[float]) -> Dict:
    """Median with n, min and max, as the runner reports a timing."""
    return {"value": statistics.median(values), "n": len(values),
            "min": min(values), "max": max(values)}


def digest(lines: Sequence[str]) -> str:
    """Short content digest of a simulated program's console output."""
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()[:16]
