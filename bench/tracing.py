"""Span recording around the simulator's layer entry points.

The traced run patches each layer's public entry point, at every name
callers look it up by, with a wrapper that records one span:
``(op_id, layer, name, start_ns, end_ns, parent)``.  Spans are kept in
memory in columnar arrays (a paper-tables pass under SPA records about
400k JVMTI dispatch spans) and turned into per-layer self times once
the run ends.  Nothing here runs in the untraced run: the wrappers are
installed before a traced pass and removed after it.

A layer's self time is its spans' duration minus the part covered by
their child spans, so time spent in a nested layer (a class load inside
``JavaVM.launch``, a parse inside that load) is charged to the nested
layer only.  The interpreter, template code and ``Frame`` pushes have
no public entry point; their time stays in ``jvm`` self time.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, List, Optional, Sequence

#: Layer of the root span each op opens; its self time is the part of
#: the op no layer span covers.
OP_LAYER = "op"

#: Module-level functions: every ``repro`` module binding the same
#: function object (``from X import f``) gets the wrapper.
FUNCTIONS = [
    ("classfile", "repro.classfile.serializer", "load_class"),
    ("verifier", "repro.bytecode.verifier", "verify_class"),
    ("verifier", "repro.analysis.typed_verifier", "typed_verify_class"),
    ("analysis", "repro.analysis.driver", "analyze_archives"),
    ("jit", "repro.jit.template", "translate"),
    ("instrument", "repro.instrument.static_instr",
     "instrument_archives_cached"),
    ("service", "repro.service.snapshot", "restore_statics"),
]

#: Methods, patched on the class that defines them.
METHODS = [
    ("instrument", "repro.instrument.static_instr", "StaticInstrumenter",
     "instrument_archives"),
    ("jit", "repro.jit.compiler", "JitCompiler", "compile"),
    ("jvm", "repro.jvm.machine", "JavaVM", "run_class_initializer"),
    ("jvmti", "repro.jvmti.host", "JVMTIHost", "dispatch_method_entry"),
    ("jvmti", "repro.jvmti.host", "JVMTIHost", "dispatch_method_exit"),
    ("service", "repro.service.warm", "WarmVM", "run"),
    ("service", "repro.service.warm", "WarmVM", "_reset"),
    ("service", "repro.jvm.heap", "Heap", "reset"),
]

#: Methods of every registered workload class.
WORKLOAD_METHODS = [("workloads", "build_classes"),
                    ("harness", "validate")]

#: Spans shorter than this are counted in the layer table but left out
#: of the Chrome trace, which would otherwise hold every JVMTI dispatch.
EXPORT_MIN_NS = 20_000


def vm_counters(vm) -> Dict[str, int]:
    """The VM's own counters, under the per-layer metric names."""
    jit = vm.jit
    scheduler = vm.scheduler
    return {
        "jvm.instructions": vm.instructions_retired,
        "jvm.method_invocations": vm.method_invocations,
        "jvm.ic_hits": vm.ic_hits,
        "jvm.ic_misses": vm.ic_misses,
        "jni.native_invocations": vm.native_invocations,
        "jni.jni_invocations": vm.jni_invocations,
        "classloader.classes_loaded": vm.loader.classes_loaded,
        "verifier.methods_verified": vm.methods_verified,
        "jvmti.events_dispatched": vm.jvmti.events_dispatched,
        "jit.templates_translated": jit.templates_translated,
        "jit.template_entries": jit.template_entries,
        "jit.osr_entries": jit.osr_entries,
        "jit.deopts": sum(jit.template_deopts.values()),
        "scheduler.context_switches": (scheduler.context_switches
                                       if scheduler else 0),
        "scheduler.io_blocks": scheduler.io_blocks if scheduler else 0,
    }


def self_times(starts: Sequence[int], ends: Sequence[int],
               parents: Sequence[int]) -> List[int]:
    """Each span's duration minus the union of its children's
    intervals (clipped to the span).  ``parents[i]`` is ``-1`` for a
    span without a parent."""
    children = defaultdict(list)
    for index, parent in enumerate(parents):
        if parent >= 0:
            children[parent].append(index)
    result = []
    for index in range(len(starts)):
        start, end = starts[index], ends[index]
        covered = 0
        kids = children.get(index)
        if kids:
            cursor = start
            for kid_start, kid_end in sorted(
                    (starts[k], ends[k]) for k in kids):
                kid_start = max(kid_start, cursor)
                kid_end = min(kid_end, end)
                if kid_end > kid_start:
                    covered += kid_end - kid_start
                    cursor = kid_end
        result.append(end - start - covered)
    return result


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        #: ``kind -> (layer, name)``; spans store the kind index.
        self.kinds: List[tuple] = []
        self._kind_index: Dict[tuple, int] = {}
        self.ops = array("q")
        self.kind = array("H")
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("q")
        #: VM counter totals over traced ops.
        self.counts: Dict[str, int] = defaultdict(int)
        self._lock = threading.Lock()
        self._local = threading.local()
        #: Stack of the thread running the current op; spans opened on
        #: another host thread (the scheduler's, at ``--cores 2``)
        #: nest under its innermost open span.
        self._home: Optional[list] = None
        self._roots: Dict[int, int] = {}
        self._patches: list = []

    # -- recording ------------------------------------------------------------

    def kind_of(self, layer: str, name: str) -> int:
        key = (layer, name)
        index = self._kind_index.get(key)
        if index is None:
            index = self._kind_index[key] = len(self.kinds)
            self.kinds.append(key)
        return index

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def _append(self, op_id: int, kind: int, start: int,
                parent: int) -> int:
        with self._lock:
            index = len(self.starts)
            self.ops.append(op_id)
            self.kind.append(kind)
            self.starts.append(start)
            self.ends.append(start)
            self.parents.append(parent)
        return index

    def open(self, kind: int, parent: Optional[int] = None) -> int:
        """Start a span under ``parent`` (default: the innermost open
        span of this thread, else of the op's thread)."""
        stack = self._stack()
        if parent is None:
            if stack:
                parent = stack[-1]
            elif self._home:
                parent = self._home[-1]
            else:
                parent = -1
        op_id = self.ops[parent] if parent >= 0 else -1
        index = self._append(op_id, kind, self.clock(), parent)
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.ends[index] = self.clock()
        self._stack().pop()

    def begin_op(self, op_id: int, start: Optional[int] = None) -> int:
        """Open op ``op_id``'s root span without entering it (requests
        served on another thread attach to it by id)."""
        index = self._append(op_id, self.kind_of(OP_LAYER, "op"),
                             self.clock() if start is None else start, -1)
        self._roots[op_id] = index
        return index

    def end_op(self, index: int, end: Optional[int] = None) -> None:
        self.ends[index] = self.clock() if end is None else end

    def root(self, op_id: int) -> Optional[int]:
        return self._roots.get(op_id)

    @contextmanager
    def op(self, op_id: int):
        """Run one op on this thread under its root span."""
        index = self.begin_op(op_id)
        stack = self._stack()
        stack.append(index)
        self._home = stack
        try:
            yield index
        finally:
            stack.pop()
            self._home = None
            self.end_op(index)

    # -- wrappers -------------------------------------------------------------

    def _wrap(self, layer: str, name: str, fn):
        kind = self.kind_of(layer, name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = tracer.open(kind)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(index)
        return wrapper

    def _wrap_load(self, fn):
        """``ClassLoader.load``: the already-loaded fast path (taken on
        every string allocation) records nothing."""
        kind = self.kind_of("classloader", "ClassLoader.load")
        tracer = self

        @functools.wraps(fn)
        def load(loader, name):
            if loader.loaded_class(name) is not None:
                return fn(loader, name)
            index = tracer.open(kind)
            try:
                return fn(loader, name)
            finally:
                tracer.close(index)
        return load

    def _wrap_launch(self, fn):
        """``JavaVM.launch``: also folds the VM's counter deltas into
        :attr:`counts` when the launch belongs to an op."""
        kind = self.kind_of("jvm", "JavaVM.launch")
        tracer = self

        @functools.wraps(fn)
        def launch(vm, main_class_name):
            before = vm_counters(vm)
            index = tracer.open(kind)
            try:
                return fn(vm, main_class_name)
            finally:
                tracer.close(index)
                if tracer.ops[index] >= 0:
                    for key, value in vm_counters(vm).items():
                        tracer.counts[key] += value - before[key]
        return launch

    def _wrap_execute(self, fn):
        """The pool worker's request entry: its span hangs under the
        request's op root, which the load generator opened."""
        kind = self.kind_of("service", "_Worker._execute")
        tracer = self

        @functools.wraps(fn)
        def execute(worker, request):
            root = tracer.root(request.request_id)
            index = tracer.open(kind, -1 if root is None else root)
            try:
                return fn(worker, request)
            finally:
                tracer.close(index)
        return execute

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Patch every entry point (idempotent per install/uninstall)."""
        if self._patches:
            return
        for layer, module_name, attr in FUNCTIONS:
            original = getattr(importlib.import_module(module_name), attr)
            wrapper = self._wrap(layer, attr, original)
            for module in list(sys.modules.values()):
                if getattr(module, "__name__", "").startswith("repro") \
                        and vars(module).get(attr) is original:
                    self._patch(module, attr, wrapper)
        for layer, module_name, class_name, attr in METHODS:
            cls = getattr(importlib.import_module(module_name), class_name)
            self._patch(cls, attr, self._wrap(
                layer, f"{class_name}.{attr}", vars(cls)[attr]))
        from repro.jvm.classloader import ClassLoader
        from repro.jvm.machine import JavaVM
        from repro.service.pool import _Worker
        from repro.workloads import get_workload, workload_names

        self._patch(ClassLoader, "load", self._wrap_load(
            vars(ClassLoader)["load"]))
        self._patch(JavaVM, "launch", self._wrap_launch(
            vars(JavaVM)["launch"]))
        self._patch(_Worker, "_execute", self._wrap_execute(
            vars(_Worker)["_execute"]))
        patched = set()
        for workload_name in workload_names():
            cls = type(get_workload(workload_name))
            for layer, attr in WORKLOAD_METHODS:
                owner = next(c for c in cls.__mro__ if attr in vars(c))
                if (owner, attr) not in patched:
                    patched.add((owner, attr))
                    self._patch(owner, attr, self._wrap(
                        layer, f"{owner.__name__}.{attr}",
                        vars(owner)[attr]))

    def uninstall(self) -> None:
        """Restore every patched name, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results --------------------------------------------------------------

    def totals(self) -> Dict[tuple, List[int]]:
        """``(layer, name) -> [self ns, span count]`` over the spans
        that belong to an op.  ``(op, op)`` holds the op roots: their
        self time is op time no layer span covers."""
        selfs = self_times(self.starts, self.ends, self.parents)
        totals: Dict[tuple, List[int]] = defaultdict(lambda: [0, 0])
        for index, value in enumerate(selfs):
            if self.ops[index] >= 0:
                entry = totals[self.kinds[self.kind[index]]]
                entry[0] += value
                entry[1] += 1
        return dict(totals)

    def op_wall_ns(self) -> int:
        return sum(self.ends[i] - self.starts[i]
                   for i in self._roots.values())

    def chrome_events(self) -> List[Dict]:
        """Chrome trace-event records, one track per op (the caller
        sets ``pid``)."""
        events = []
        for index in range(len(self.starts)):
            duration = self.ends[index] - self.starts[index]
            layer, name = self.kinds[self.kind[index]]
            if duration < EXPORT_MIN_NS and layer != OP_LAYER:
                continue
            events.append({
                "name": name, "cat": layer, "ph": "X",
                "tid": int(self.ops[index]),
                "ts": self.starts[index] / 1000.0,
                "dur": duration / 1000.0})
        return events
