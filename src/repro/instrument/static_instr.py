"""Offline (static) instrumentation of class files and archives.

This is the route the paper chose: instrument everything — application
classes *and* the runtime library ("we also applied our instrumentation
tool to the classes of the JDK, including the core classes within
``rt.jar``") — before the profiled run, then load the instrumented
classes via the bootclasspath-prepend option.  Static instrumentation
costs **zero simulated cycles**: it happens before the measured run.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.classfile.archive import ClassArchive
from repro.classfile.serializer import dump_class, load_class
from repro.instrument.wrapper_gen import (
    InstrumentationConfig,
    instrument_classfile,
)


@dataclass
class InstrumentationStats:
    """What an instrumentation pass did."""

    classes_scanned: int = 0
    classes_instrumented: int = 0
    methods_wrapped: int = 0


class StaticInstrumenter:
    """Processes serialized classes/archives, like the paper's ASM tool."""

    def __init__(self, config: Optional[InstrumentationConfig] = None):
        self.config = config or InstrumentationConfig()
        self.stats = InstrumentationStats()

    def instrument_class_bytes(self, data: bytes) -> bytes:
        """Transform one serialized class; returns (possibly identical)
        bytes."""
        cf = load_class(data)
        self.stats.classes_scanned += 1
        wrapped = instrument_classfile(cf, self.config)
        if wrapped == 0:
            return data
        self.stats.classes_instrumented += 1
        self.stats.methods_wrapped += wrapped
        return dump_class(cf)

    def instrument_archive(self, archive: ClassArchive) -> ClassArchive:
        """Transform a whole archive; the input is left untouched."""
        out = ClassArchive()
        for name in archive.names():
            out.put_bytes(name,
                          self.instrument_class_bytes(
                              archive.get_bytes(name)))
        return out

    def instrument_archives(self,
                            archives: List[ClassArchive]
                            ) -> List[ClassArchive]:
        """Transform several archives (boot + classpath) in order."""
        return [self.instrument_archive(a) for a in archives]


# -- memoized whole-set instrumentation ---------------------------------------
#
# Instrumentation is pure: (archive bytes, config) fully determine the
# output.  The harness instruments the same runtime + workload archives
# for every profiled run (and for every repetition when runs > 1), so
# repeating the work only burns host time.  The memo is keyed on the
# archive objects (registry archives are authored once per process, see
# ``Workload.archive``) and pins them, so a key's ids cannot be reused.


@functools.lru_cache(maxsize=64)
def _instrumented(archives: Tuple[ClassArchive, ...],
                  config: InstrumentationConfig
                  ) -> Tuple[List[ClassArchive], InstrumentationStats]:
    instrumenter = StaticInstrumenter(config)
    return instrumenter.instrument_archives(list(archives)), \
        instrumenter.stats


def instrument_archives_cached(
        archives: List[ClassArchive],
        config: Optional[InstrumentationConfig] = None,
) -> Tuple[List[ClassArchive], InstrumentationStats]:
    """Instrument ``archives`` under ``config``, memoized.

    Returns ``(instrumented_archives, stats)``.  Results are shared:
    callers must treat the returned archives as read-only (class
    loading already does).
    """
    result, stats = _instrumented(tuple(archives),
                                  config or InstrumentationConfig())
    return list(result), stats
