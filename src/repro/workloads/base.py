"""Workload abstraction.

A workload owns: its application classes (built with the assembler),
any input files for the simulated file system, optional extra native
libraries, its metric kind, and a self-check that the run produced the
expected output (so benchmark numbers are never reported off a broken
run)."""

from __future__ import annotations

import abc
import enum
import functools
from dataclasses import dataclass
from typing import List, Optional

from repro.classfile.archive import ClassArchive
from repro.errors import WorkloadError


class MetricKind(enum.Enum):
    """How Table I reports this workload."""

    TIME = "time"              # SPEC JVM98: execution time
    THROUGHPUT = "throughput"  # SPEC JBB2005: operations/second


@dataclass
class WorkloadResultCheck:
    """Outcome of a workload's self-validation."""

    ok: bool
    detail: str = ""


#: Bound on :func:`_authored`'s memo, in (workload class, scale) pairs.
_AUTHORED_MEMO_SIZE = 64


@functools.lru_cache(maxsize=_AUTHORED_MEMO_SIZE)
def _authored(cls, scale: int) -> List[ClassArchive]:
    """The process-wide slot holding ``cls``'s archive at ``scale``:
    empty until the first instance authors it with its own
    ``build_classes``."""
    return []


class Workload(abc.ABC):
    """Base class for all benchmarks."""

    #: Registry/reporting name, e.g. ``"compress"``.
    name: str = "workload"
    #: One-line description.
    description: str = ""
    metric: MetricKind = MetricKind.TIME

    def __init__(self, scale: int = 1):
        if scale < 1:
            raise WorkloadError(f"scale must be >= 1, got {scale}")
        self.scale = scale
        self._archive: Optional[ClassArchive] = None

    # -- mandatory pieces ---------------------------------------------------------

    @property
    @abc.abstractmethod
    def main_class(self) -> str:
        """Class whose ``main()V`` drives the benchmark."""

    @abc.abstractmethod
    def build_classes(self) -> ClassArchive:
        """Author and serialize the workload's classes."""

    # -- optional pieces --------------------------------------------------------------

    def install_files(self, vm) -> None:
        """Install input files into the VM's simulated file system."""

    def native_libraries(self) -> List:
        """Workload-specific native libraries (loaded by the workload
        via ``System.loadLibrary``)."""
        return []

    def validate(self, vm) -> WorkloadResultCheck:
        """Check the run produced the expected result."""
        return WorkloadResultCheck(True)

    def operations(self, vm) -> int:
        """Completed operations, for THROUGHPUT workloads."""
        raise WorkloadError(
            f"workload {self.name} does not report operations")

    # -- shared plumbing -------------------------------------------------------------------

    @property
    def archive(self) -> ClassArchive:
        """The serialized application classes, authored once per
        process for a registered workload and scale (shared read-only
        by every instance, so the VMs and the instrumentation memo see
        one archive), and once per instance otherwise: a subclass's
        classes may depend on more than ``scale``."""
        if self._archive is None:
            from repro.workloads.suite import registered

            slot = _authored(type(self), self.scale) \
                if registered(self) else []
            if not slot:
                slot.append(self.build_classes())
            self._archive = slot[0]
        return self._archive

    def console_value(self, vm, key: str) -> Optional[str]:
        """Find ``key=value`` in the VM console (workloads print their
        checksums this way)."""
        prefix = f"{key}="
        for line in vm.console:
            if line.startswith(prefix):
                return line[len(prefix):]
        return None

    def __repr__(self):  # pragma: no cover - debug aid
        return f"<Workload {self.name} scale={self.scale}>"
