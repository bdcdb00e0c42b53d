"""Class-hierarchy-analysis (CHA) call graph over class archives.

Builds a whole-program call graph for the app + runtime archives: every
``invoke*`` instruction becomes a :class:`CallSite`, and virtual sites
are expanded to the CHA cone — the statically resolved method plus every
override in subclasses of the static receiver type.  The ISA has no
interfaces, so single-parent subclassing is the whole hierarchy.

Entry points are the conventional roots of the simulated VM: every
static ``main`` method, every ``<clinit>`` (run at initialization), and
every ``run()V`` (started via ``Thread``).  Reachability from those
roots gives the live method set that the native-boundary analysis
(:mod:`repro.analysis.boundary`) slices for J2N edges.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.bytecode.opcodes import INVOKE_OPS, Op
from repro.classfile.classfile import ClassFile
from repro.classfile.constant_pool import CpMethodRef
from repro.classfile.members import MethodInfo
from repro.errors import ClassFileError, ConstantPoolError


def qualified_name(class_name: str, method: MethodInfo) -> str:
    """``class.name(descriptor)`` key, matching
    :attr:`LoadedMethod.qualified_name` in the VM."""
    return f"{class_name}.{method.name}{method.descriptor}"


class ClassHierarchy:
    """Name-indexed class set with subclass links and method resolution."""

    def __init__(self, classes: Iterable[ClassFile]):
        self.classes: Dict[str, ClassFile] = {}
        for cf in classes:
            # first definition wins, like a classpath search
            self.classes.setdefault(cf.name, cf)
        self._children: Dict[str, List[str]] = defaultdict(list)
        for cf in self.classes.values():
            if cf.super_name:
                self._children[cf.super_name].append(cf.name)

    def __contains__(self, name: str) -> bool:
        return name in self.classes

    def get(self, name: str) -> Optional[ClassFile]:
        return self.classes.get(name)

    def superclass_chain(self, name: str) -> List[ClassFile]:
        """``name`` and its superclasses, bottom-up (missing links stop
        the walk)."""
        chain = []
        cursor = self.classes.get(name)
        while cursor is not None:
            chain.append(cursor)
            cursor = (self.classes.get(cursor.super_name)
                      if cursor.super_name else None)
        return chain

    def subclasses(self, name: str) -> Set[str]:
        """All transitive subclasses of ``name`` (excluding itself)."""
        found: Set[str] = set()
        stack = list(self._children.get(name, ()))
        while stack:
            child = stack.pop()
            if child not in found:
                found.add(child)
                stack.extend(self._children.get(child, ()))
        return found

    def resolve(self, class_name: str, method_name: str,
                descriptor: str) -> Optional[Tuple[str, MethodInfo]]:
        """JVM-style resolution: search ``class_name`` then up the
        superclass chain."""
        for cf in self.superclass_chain(class_name):
            method = cf.find_method(method_name, descriptor)
            if method is not None:
                return cf.name, method
        return None

    def cha_targets(self, class_name: str, method_name: str,
                    descriptor: str) -> List[Tuple[str, MethodInfo]]:
        """CHA cone for a virtual dispatch: the resolved method plus
        every override declared in a subclass of the receiver type."""
        targets: List[Tuple[str, MethodInfo]] = []
        resolved = self.resolve(class_name, method_name, descriptor)
        if resolved is not None:
            targets.append(resolved)
        for sub in sorted(self.subclasses(class_name)):
            method = self.classes[sub].find_method(method_name, descriptor)
            if method is not None:
                targets.append((sub, method))
        return targets


class CallSite:
    """One ``invoke*`` instruction and its CHA-resolved targets."""

    __slots__ = ("caller", "pc", "op", "ref", "targets")

    def __init__(self, caller: str, pc: int, op: Op, ref: CpMethodRef,
                 targets: List[str]):
        self.caller = caller      # qualified caller
        self.pc = pc              # instruction index within the caller
        self.op = op
        self.ref = ref            # the symbolic reference as written
        self.targets = targets    # qualified CHA targets (may be empty)

    @property
    def symbolic(self) -> str:
        return (f"{self.ref.class_name}.{self.ref.method_name}"
                f"{self.ref.descriptor}")

    def to_json(self) -> dict:
        return {
            "caller": self.caller,
            "pc": self.pc,
            "op": self.op.name.lower(),
            "ref": self.symbolic,
            "targets": list(self.targets),
        }


class CallGraph:
    """Methods (nodes), CHA edges, call sites, and reachability."""

    def __init__(self, hierarchy: ClassHierarchy):
        self.hierarchy = hierarchy
        self.methods: Dict[str, MethodInfo] = {}
        self.owner: Dict[str, str] = {}          # qname -> class name
        self.edges: Dict[str, Set[str]] = defaultdict(set)
        self.call_sites: List[CallSite] = []
        self.unresolved: List[CallSite] = []
        self.entry_points: List[str] = []

    def reachable(self,
                  roots: Optional[Iterable[str]] = None) -> Set[str]:
        """Methods reachable from ``roots`` (default: the entry
        points) over CHA edges."""
        seen: Set[str] = set()
        stack = [r for r in (roots if roots is not None
                             else self.entry_points) if r in self.methods]
        seen.update(stack)
        while stack:
            for callee in self.edges.get(stack.pop(), ()):
                if callee in self.methods and callee not in seen:
                    seen.add(callee)
                    stack.append(callee)
        return seen

    def to_json(self) -> dict:
        return {
            "methods": sorted(self.methods),
            "entry_points": sorted(self.entry_points),
            "edges": {caller: sorted(callees)
                      for caller, callees in sorted(self.edges.items())},
            "call_sites": [site.to_json() for site in self.call_sites],
            "unresolved": [site.to_json() for site in self.unresolved],
        }


def _is_entry_point(method: MethodInfo) -> bool:
    if method.name == "main" and method.is_static:
        return True
    if method.name == "<clinit>":
        return True
    return method.name == "run" and method.descriptor == "()V"


def build_call_graph(hierarchy: ClassHierarchy) -> CallGraph:
    """Walk every method of every class and wire CHA edges."""
    graph = CallGraph(hierarchy)

    for cf in hierarchy.classes.values():
        for method in cf.methods:
            qname = qualified_name(cf.name, method)
            graph.methods[qname] = method
            graph.owner[qname] = cf.name
            if _is_entry_point(method):
                graph.entry_points.append(qname)

    for cf in hierarchy.classes.values():
        for method in cf.methods:
            if method.is_native or not method.code:
                continue
            caller = qualified_name(cf.name, method)
            for pc, ins in enumerate(method.code):
                if ins.op not in INVOKE_OPS:
                    continue
                try:
                    ref = cf.constant_pool.get_typed(ins.operand,
                                                     CpMethodRef)
                except (ConstantPoolError, ClassFileError):
                    continue  # the verifier reports this, not CHA
                if ins.op is Op.INVOKEVIRTUAL:
                    resolved = hierarchy.cha_targets(
                        ref.class_name, ref.method_name, ref.descriptor)
                else:  # static / special bind to exactly one method
                    one = hierarchy.resolve(
                        ref.class_name, ref.method_name, ref.descriptor)
                    resolved = [one] if one is not None else []
                targets = [qualified_name(owner, target)
                           for owner, target in resolved]
                site = CallSite(caller, pc, ins.op, ref, targets)
                graph.call_sites.append(site)
                if targets:
                    graph.edges[caller].update(targets)
                else:
                    graph.unresolved.append(site)

    return graph


def build_hierarchy(archives) -> ClassHierarchy:
    """Hierarchy over a sequence of :class:`ClassArchive` (classpath
    order: earlier archives shadow later ones).  Classes are parsed
    through the process-wide memo, so the analyses read the same
    read-only objects the VMs link."""
    def iter_classes():
        for archive in archives:
            yield from archive.shared_classes()
    return ClassHierarchy(iter_classes())
