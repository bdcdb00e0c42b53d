"""Class loading and linking.

:class:`ClassLoader` searches, in order:

1. the **bootclasspath prepend** archives (the simulator's
   ``-Xbootclasspath/p:`` — how the paper loads statically instrumented
   JDK classes ahead of ``rt.jar``),
2. the bootclasspath archives (the runtime library),
3. the application classpath archives (workload classes).

Loading deserializes class bytes, offers them to the JVMTI
``ClassFileLoadHook`` (which may rewrite them — dynamic instrumentation),
links the class (superclass resolution, merged instance-field defaults,
per-instruction cost arrays), and finally runs ``<clinit>``.

:class:`LoadedMethod` is the runtime view of a method: it owns the JIT
state (invocation/backedge counters, hot and compiled flags, active
cost array) and the lazily resolved native implementation.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.analysis.typed_verifier import typed_verify_class
from repro.bytecode.opcodes import SPECS
from repro.bytecode.verifier import verify_class
from repro.classfile.classfile import OBJECT_CLASS, ClassFile
from repro.classfile.serializer import load_class
from repro.errors import ClassNotFoundError, LinkageError, VMError
from repro.jvm.costmodel import ChargeTag

CLINIT = ("<clinit>", "()V")


class LoadedMethod:
    """Runtime state of one method."""

    __slots__ = ("info", "owner", "interp_cost_list", "compiled_cost_list",
                 "active_costs", "invocation_count", "backedge_count",
                 "hot", "compiled", "native_impl", "native_resolved",
                 "ops", "operands", "template", "template_deopt_count",
                 "osr_map", "osr_entry_count", "is_native")

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
        # OSR: loop-header pc -> entry-stub block id in the template
        # (installed with the template), and how many live frames have
        # entered mid-method through those stubs
        self.osr_map = None
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
        self.classes_loaded = 0

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
            cf = load_class(hooked if hooked is not None else data)
            if cf.name != name:
                raise LinkageError(
                    f"archive entry {name!r} defines class {cf.name!r}")
            self._verify(cf)
            super_class = None
            if cf.super_name is not None:
                super_class = self.load(cf.super_name)
            elif name != OBJECT_CLASS:
                raise LinkageError(
                    f"class {name} has no superclass")
            loaded = LoadedClass(cf, super_class, self._vm.cost_model)
            self._loaded[name] = loaded
            self.classes_loaded += 1
            self._charge_load(loaded)
            self._initialize(loaded)
            if trace_thread is not None:
                tracer.complete(name, "classload",
                                trace_thread.thread_id, load_started,
                                trace_thread.cycles_total)
            return loaded
        finally:
            self._loading.remove(name)

    def _verify(self, cf: ClassFile) -> None:
        """Fail-fast bytecode verification per ``VMConfig.verify``.

        Runs on the host before linking — a class that fails never
        loads, and the raised :class:`~repro.errors.VerifyError` names
        the class, method, and instruction index.  No simulated cycles
        are charged, so verified and unverified runs produce identical
        measurements.
        """
        mode = self._vm.config.verify
        if mode == "off":
            return
        if mode == "structural":
            self._vm.methods_verified += verify_class(cf)
        elif mode == "typed":
            self._vm.methods_verified += typed_verify_class(cf)
        else:
            raise VMError(f"unknown verify mode {mode!r} "
                          f"(expected off, structural, or typed)")

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
