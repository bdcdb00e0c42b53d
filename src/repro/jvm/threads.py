"""Simulated threads.

By default (``cores=1``) the simulator runs threads **sequentially** on
one virtual CPU: a started thread is queued and executed to completion
either when the starter joins it or when the current thread finishes.
This is a valid serialization of the program (workloads are written so
that any serialization is correct), keeps the machine fully
deterministic, and matches the paper's single-CPU Pentium 4 testbed
where total CPU time is the sum of per-thread times.

With ``cores=N`` (N > 1) the :mod:`repro.jvm.scheduler` runs the same
threads preemptively on N simulated cores with per-core cycle clocks;
the extra :class:`ThreadState` values (READY/BLOCKED/WAITING) belong to
that mode.

Each thread carries its own virtual cycle counter — exactly the
per-thread hardware counter PCL virtualizes — plus the tagged
ground-truth breakdown used by the test suite.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import Deque, Dict, List, Optional

from repro.jvm.costmodel import ChargeTag
from repro.errors import VMError


class ThreadState(enum.Enum):
    NEW = "new"
    #: Started but not yet run (sequential model's run queue).
    QUEUED = "queued"
    #: Runnable, waiting for a core (preemptive scheduler).
    READY = "ready"
    RUNNING = "running"
    #: Blocked acquiring a contended object monitor.
    BLOCKED = "blocked"
    #: Waiting on another thread (``Thread.join``) or the drain barrier.
    WAITING = "waiting"
    TERMINATED = "terminated"


class SimThread:
    """One simulated Java thread."""

    _HPC_TAGS = (ChargeTag.BYTECODE, ChargeTag.NATIVE, ChargeTag.AGENT,
                 ChargeTag.VM)

    def __init__(self, thread_id: int, name: str, java_object=None,
                 samplers: Optional[List] = None):
        self.thread_id = thread_id
        self.name = name
        #: The ``java.lang.Thread`` instance this thread executes (None
        #: for the bootstrap/main thread until the runtime creates one).
        self.java_object = java_object
        self.state = ThreadState.NEW
        self.frames: List = []
        #: Template activations running without a Frame (template-to-
        #: template calls); the stack depth is ``len(frames)`` plus this.
        self.frameless = 0
        #: Per-thread hardware cycle counter (what PCL reads).
        self.cycles_total = 0
        #: Ground truth: cycles by charge tag.
        self.cycles_by_tag: Dict[ChargeTag, int] = {
            tag: 0 for tag in self._HPC_TAGS}
        #: Uncaught Java exception that terminated the thread, if any.
        self.uncaught_exception = None
        #: Core the thread is (or was last) dispatched on; ``None``
        #: under the sequential model.
        self.core: Optional[int] = None
        #: Cycle threshold at which the preemptive scheduler considers
        #: a quantum expired (consulted at safepoints only; never under
        #: the sequential model).
        self.preempt_at = 0
        #: What a BLOCKED/WAITING thread waits for:
        #: ``("monitor", obj)`` / ``("join", thread)`` /
        #: ``("drain", None)`` / ``("io", device)``; ``None`` when
        #: runnable.
        self.waiting_on = None
        #: Off-CPU cycles spent blocked on simulated devices.  Kept
        #: strictly apart from :attr:`cycles_total` (the CPU counter
        #: PCL reads): blocked time elapses on a device timeline, not
        #: on this thread's CPU clock.
        self.blocked_total = 0
        #: Ground truth: blocked cycles by device name.
        self.blocked_by_device: Dict[str, int] = {}
        #: Host-side PC samplers (shared list owned by ThreadManager);
        #: empty in normal runs — see repro.agents.sampling.
        self._samplers = samplers if samplers is not None else []

    def charge(self, cycles: int, tag: ChargeTag) -> None:
        """Consume ``cycles`` on this thread, tagged with ground truth."""
        self.cycles_total += cycles
        self.cycles_by_tag[tag] += cycles
        if self._samplers:
            for sampler in self._samplers:
                extra = sampler.on_charge(self, cycles, tag)
                if extra:
                    # interrupt handling itself: VM time, applied
                    # directly so it cannot re-trigger sampling
                    self.cycles_total += extra
                    self.cycles_by_tag[ChargeTag.VM] += extra

    def block(self, cycles: int, device: str) -> None:
        """Account ``cycles`` of off-CPU time blocked on ``device``.

        Deliberately *not* routed through :meth:`charge`: blocked time
        never advances :attr:`cycles_total`, never carries a
        :class:`ChargeTag`, and never drives PC samplers — the CPU is
        idle (or running someone else) while this thread waits.
        """
        self.blocked_total += cycles
        self.blocked_by_device[device] = \
            self.blocked_by_device.get(device, 0) + cycles

    @property
    def wall_cycles(self) -> int:
        """This thread's wall clock: CPU cycles plus blocked cycles."""
        return self.cycles_total + self.blocked_total

    @property
    def depth(self) -> int:
        return len(self.frames) + self.frameless

    def __repr__(self):  # pragma: no cover - debug aid
        return (f"<SimThread #{self.thread_id} {self.name!r} "
                f"{self.state.value} cycles={self.cycles_total}>")


class ThreadManager:
    """Registry and run queue for simulated threads."""

    def __init__(self):
        self._threads: List[SimThread] = []
        self._queue: Deque[SimThread] = deque()
        #: ``id(java_object) -> SimThread`` so ``Thread.join`` does not
        #: scan the registry per call (hot under N cores).
        self._by_java_object: Dict[int, SimThread] = {}
        self._next_id = 1
        self.current: Optional[SimThread] = None
        #: Host-side PC samplers shared by every thread (see
        #: repro.agents.sampling.SamplingProfiler.install).
        self.samplers: List = []

    def create(self, name: str, java_object=None) -> SimThread:
        thread = SimThread(self._next_id, name, java_object,
                           samplers=self.samplers)
        self._next_id += 1
        self._threads.append(thread)
        if java_object is not None:
            self._by_java_object[id(java_object)] = thread
        return thread

    def enqueue(self, thread: SimThread) -> None:
        """Queue a NEW thread for execution (``Thread.start``)."""
        if thread.state is not ThreadState.NEW:
            raise VMError(
                f"thread {thread.name!r} started twice "
                f"(state {thread.state.value})")
        thread.state = ThreadState.QUEUED
        self._queue.append(thread)

    def dequeue(self, thread: Optional[SimThread] = None
                ) -> Optional[SimThread]:
        """Pop ``thread`` (or the oldest queued thread) from the queue."""
        if thread is None:
            return self._queue.popleft() if self._queue else None
        try:
            self._queue.remove(thread)
        except ValueError:
            return None
        return thread

    def find_by_java_object(self, java_object) -> Optional[SimThread]:
        return self._by_java_object.get(id(java_object))

    @property
    def all_threads(self) -> List[SimThread]:
        return list(self._threads)

    @property
    def has_queued(self) -> bool:
        return bool(self._queue)

    def total_cycles(self) -> int:
        """Sum of all per-thread counters (= total CPU time across the
        simulated cores; equal to the virtual wall clock when there is
        a single CPU)."""
        return sum(t.cycles_total for t in self._threads)

    def total_by_tag(self) -> Dict[ChargeTag, int]:
        """Ground-truth cycle totals across all threads."""
        totals = {tag: 0 for tag in SimThread._HPC_TAGS}
        for thread in self._threads:
            for tag, cycles in thread.cycles_by_tag.items():
                totals[tag] += cycles
        return totals

    def total_blocked(self) -> int:
        """Sum of off-CPU (device-blocked) cycles across all threads."""
        return sum(t.blocked_total for t in self._threads)

    def total_blocked_by_device(self) -> Dict[str, int]:
        """Blocked-cycle totals per device across all threads."""
        totals: Dict[str, int] = {}
        for thread in self._threads:
            for device, cycles in thread.blocked_by_device.items():
                totals[device] = totals.get(device, 0) + cycles
        return totals
