"""Class loading and linking.

:class:`ClassLoader` searches, in order:

1. the **bootclasspath prepend** archives (the simulator's
   ``-Xbootclasspath/p:`` — how the paper loads statically instrumented
   JDK classes ahead of ``rt.jar``),
2. the bootclasspath archives (the runtime library),
3. the application classpath archives (workload classes).

Loading offers the class bytes to the JVMTI ``ClassFileLoadHook``
(which may rewrite them — dynamic instrumentation), parses and verifies
what the hook returns, links the class (superclass resolution, merged
instance-field defaults, per-instruction cost arrays), and finally runs
``<clinit>``.

The cold layers run once per process, as HotSpot's Class Data Sharing
splits read-only class data from each VM's resolved state: the parsed
:class:`~repro.classfile.classfile.ClassFile` comes from
:func:`~repro.classfile.serializer.shared_class` and is shared,
read-only, by every VM that loads the same bytes, and verification runs
once per (bytes, mode).  Everything a VM writes lives on its own
:class:`LoadedClass` and :class:`LoadedMethod`.

:class:`LoadedMethod` is the runtime view of a method: it owns the JIT
state (invocation/backedge counters, hot and compiled flags, active
cost array), the quickening table and the lazily resolved native
implementation.
"""

from __future__ import annotations

import functools
from typing import Dict, List, Optional, Tuple

from repro.analysis.typed_verifier import typed_verify_class
from repro.bytecode.opcodes import SPECS
from repro.bytecode.verifier import verify_class
from repro.classfile.classfile import OBJECT_CLASS, ClassFile
from repro.classfile.serializer import shared_class
from repro.errors import ClassNotFoundError, LinkageError, VMError
from repro.jvm.costmodel import ChargeTag

CLINIT = ("<clinit>", "()V")

#: Bound on :func:`_verified_methods`' memo, in (class bytes, mode)
#: pairs; as the parse memo's, it only caps an unbounded stream.
_VERIFY_MEMO_SIZE = 1024


class LoadedMethod:
    """Runtime state of one method."""

    __slots__ = ("info", "owner", "interp_cost_list", "compiled_cost_list",
                 "active_costs", "invocation_count", "backedge_count",
                 "hot", "compiled", "native_impl", "native_resolved",
                 "ops", "operands", "quick", "template",
                 "template_deopt_count", "osr_map", "osr_template",
                 "osr_entry_count", "is_native")

    def __init__(self, info, owner, cost_model):
        self.info = info
        self.owner = owner
        # flattened from the two-property chain (info.flags test): the
        # interpreter and every template consult this on each INVOKE
        self.is_native = info.is_native
        if info.code is not None:
            self.interp_cost_list = tuple(
                cost_model.interp_cost(SPECS[ins.op].cost_class)
                for ins in info.code)
            self.compiled_cost_list = tuple(
                cost_model.compiled_cost(SPECS[ins.op].cost_class)
                for ins in info.code)
            # pre-decoded dispatch streams: the interpreter indexes
            # these tuples instead of touching Instruction attributes
            # on its hot path (opcodes as plain ints, operands as-is)
            self.ops = tuple(int(ins.op) for ins in info.code)
            self.operands = tuple(ins.operand for ins in info.code)
        else:
            self.interp_cost_list = ()
            self.compiled_cost_list = ()
            self.ops = ()
            self.operands = ()
        #: quickening: what this VM resolved at each constant-pool site,
        #: set on the site's first execution and never invalidated.  It
        #: lives here, per VM, so the parsed ``info`` stays shared.
        self.quick = [None] * len(self.ops)
        self.active_costs = self.interp_cost_list
        self.invocation_count = 0
        self.backedge_count = 0
        #: set once a hotness threshold fires (JitCompiler.compile),
        #: whether or not the simulated JIT may compile the method
        self.hot = False
        self.compiled = False
        self.native_impl = None
        self.native_resolved = False
        # template tier: the specialized Python function the JIT
        # installed for this method (None = dispatch loop), and how
        # often it has deoptimized (the policy disable threshold)
        self.template = None
        self.template_deopt_count = 0
        # OSR: loop-header pc -> stack depth there (installed with the
        # template), the dispatch-form function whose entry stubs take
        # a live frame in at those headers (the template itself unless
        # it is structured; else made at the first OSR entry), and how
        # many live frames have entered mid-method through them
        self.osr_map = None
        self.osr_template = None
        self.osr_entry_count = 0

    @property
    def qualified_name(self) -> str:
        return f"{self.owner.name}.{self.info.name}{self.info.descriptor}"

    def mark_compiled(self) -> None:
        self.compiled = True
        self.active_costs = self.compiled_cost_list

    def __repr__(self):  # pragma: no cover - debug aid
        state = "native" if self.is_native else (
            "compiled" if self.compiled else "interpreted")
        return f"<LoadedMethod {self.qualified_name} [{state}]>"


class LoadedClass:
    """Runtime state of one class: linked members, statics, dispatch."""

    def __init__(self, cf: ClassFile, super_class: Optional["LoadedClass"],
                 cost_model):
        self.cf = cf
        self.name = cf.name
        self.super_class = super_class
        self.methods: Dict[Tuple[str, str], LoadedMethod] = {
            m.key: LoadedMethod(m, self, cost_model) for m in cf.methods}
        self.statics: Dict[str, object] = {
            f.name: f.default for f in cf.fields if f.is_static}
        merged: Dict[str, object] = {}
        if super_class is not None:
            merged.update(super_class.instance_field_defaults)
        for f in cf.fields:
            if not f.is_static:
                merged[f.name] = f.default
        self.instance_field_defaults = merged
        self.initialized = False
        self._virtual_cache: Dict[Tuple[str, str],
                                  Optional[LoadedMethod]] = {}

    @property
    def constant_pool(self):
        return self.cf.constant_pool

    def find_declared(self, name: str, descriptor: str
                      ) -> Optional[LoadedMethod]:
        return self.methods.get((name, descriptor))

    def resolve_method(self, name: str, descriptor: str
                       ) -> Optional[LoadedMethod]:
        """Resolve a method against this class and its superclasses."""
        key = (name, descriptor)
        cached = self._virtual_cache.get(key, False)
        if cached is not False:
            return cached
        cls: Optional[LoadedClass] = self
        found = None
        while cls is not None:
            found = cls.methods.get(key)
            if found is not None:
                break
            cls = cls.super_class
        self._virtual_cache[key] = found
        return found

    def resolve_static_holder(self, field_name: str
                              ) -> Optional["LoadedClass"]:
        """Find the class in the hierarchy declaring static ``field_name``."""
        cls: Optional[LoadedClass] = self
        while cls is not None:
            if field_name in cls.statics:
                return cls
            cls = cls.super_class
        return None

    def is_subclass_of(self, class_name: str) -> bool:
        cls: Optional[LoadedClass] = self
        while cls is not None:
            if cls.name == class_name:
                return True
            cls = cls.super_class
        return False

    def __repr__(self):  # pragma: no cover - debug aid
        return f"<LoadedClass {self.name}>"


class ClassLoader:
    """Loads and links classes from archives for one VM instance."""

    def __init__(self, vm):
        self._vm = vm
        self.bootclasspath_prepend: List = []
        self.bootclasspath: List = []
        self.classpath: List = []
        self._loaded: Dict[str, LoadedClass] = {}
        self._loading: List[str] = []

    # -- path configuration ---------------------------------------------------

    def add_boot_archive(self, archive) -> None:
        self.bootclasspath.append(archive)

    def prepend_boot_archive(self, archive) -> None:
        """The ``-Xbootclasspath/p:`` equivalent."""
        self.bootclasspath_prepend.append(archive)

    def add_classpath_archive(self, archive) -> None:
        self.classpath.append(archive)

    # -- queries --------------------------------------------------------------

    def loaded_class(self, name: str) -> Optional[LoadedClass]:
        return self._loaded.get(name)

    def loaded_classes(self) -> List[LoadedClass]:
        return list(self._loaded.values())

    @property
    def classes_loaded(self) -> int:
        """This run's class loads (a ``RunState`` field on the VM);
        bench/tracing.py still reads it here."""
        return self._vm.classes_loaded

    def _find_bytes(self, name: str) -> Optional[bytes]:
        for group in (self.bootclasspath_prepend, self.bootclasspath,
                      self.classpath):
            for archive in group:
                if name in archive:
                    return archive.get_bytes(name)
        return None

    # -- loading ---------------------------------------------------------------

    def load(self, name: str) -> LoadedClass:
        """Load, link, and initialize class ``name`` (idempotent)."""
        existing = self._loaded.get(name)
        if existing is not None:
            return existing
        if name in self._loading:
            # Cyclic initialization: return the partially linked class.
            # (Mirrors the JVM, where a class in the middle of <clinit>
            # is visible to code it triggers.)
            partial = self._loaded.get(name)
            if partial is not None:
                return partial
            raise LinkageError(f"circular loading of class {name}")

        data = self._find_bytes(name)
        if data is None:
            raise ClassNotFoundError(f"class not found: {name}")

        self._loading.append(name)
        tracer = self._vm.obs.tracer
        trace_thread = self._vm.threads.current \
            if tracer.enabled else None
        load_started = trace_thread.cycles_total \
            if trace_thread is not None else 0
        try:
            hooked = self._vm.jvmti.dispatch_class_file_load_hook(name, data)
            if hooked is not None:
                data = hooked
            cf = shared_class(data)
            if cf.name != name:
                raise LinkageError(
                    f"archive entry {name!r} defines class {cf.name!r}")
            self._verify(data)
            super_class = None
            if cf.super_name is not None:
                super_class = self.load(cf.super_name)
            elif name != OBJECT_CLASS:
                raise LinkageError(
                    f"class {name} has no superclass")
            loaded = LoadedClass(cf, super_class, self._vm.cost_model)
            self._loaded[name] = loaded
            self._vm.classes_loaded += 1
            self._charge_load(loaded)
            self._initialize(loaded)
            if trace_thread is not None:
                tracer.complete(name, "classload",
                                trace_thread.thread_id, load_started,
                                trace_thread.cycles_total)
            return loaded
        finally:
            self._loading.remove(name)

    def _verify(self, data: bytes) -> None:
        """Fail-fast bytecode verification per ``VMConfig.verify``.

        Runs on the host before linking — a class that fails never
        loads, and the raised :class:`~repro.errors.VerifyError` names
        the class, method, and instruction index.  No simulated cycles
        are charged, so verified and unverified runs produce identical
        measurements, and a class passes once per process per mode:
        later VMs add the remembered method count.
        """
        mode = self._vm.config.verify
        if mode == "off":
            return
        if mode not in ("structural", "typed"):
            raise VMError(f"unknown verify mode {mode!r} "
                          f"(expected off, structural, or typed)")
        self._vm.methods_verified += _verified_methods(data, mode)

    def _charge_load(self, loaded: LoadedClass) -> None:
        thread = self._vm.threads.current
        if thread is not None:
            cost = (self._vm.cost_model.class_load_per_method
                    * max(1, len(loaded.methods)))
            thread.charge(cost, ChargeTag.VM)

    def _initialize(self, loaded: LoadedClass) -> None:
        if loaded.initialized:
            return
        loaded.initialized = True
        clinit = loaded.methods.get(CLINIT)
        if clinit is not None:
            self._vm.run_class_initializer(loaded, clinit)


@functools.lru_cache(maxsize=_VERIFY_MEMO_SIZE)
def _verified_methods(data: bytes, mode: str) -> int:
    """Methods verified in the class ``data`` under ``mode``, once per
    process.  A :class:`~repro.errors.VerifyError` is not memoized:
    every VM that loads a bad class re-verifies it and raises its own
    error with the same text.  The verifiers are looked up by this
    module's names on each miss; the typed one reads the per-process
    typed report (:func:`~repro.analysis.typed_verifier.typed_report`),
    which ``analyze_archives`` shares."""
    if mode == "structural":
        return verify_class(shared_class(data))
    return typed_verify_class(data)
