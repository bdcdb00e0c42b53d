"""Static race prediction: thread-escape analysis + Eraser locksets.

Three cooperating passes over the PR-4 CHA call graph:

1. **Flow collection** — a light abstract interpretation of every
   reachable method.  Abstract values are sets of possible class names
   (plus the ``[]`` marker for arrays); locals start from the method
   descriptor's declared types, ``NEW``/``CHECKCAST`` refine, and
   ``GETFIELD`` reads flow through a global ``(declaring class, field)
   -> classes`` table computed to fixpoint.  The pass records which
   classes are stored into which containers (instance fields, statics,
   arrays) and, per pc, the receiver classes of every field access and
   monitor operation.

2. **Thread-escape** — a class reaches another thread if it is a
   started ``java.lang.Thread`` subclass, is stored into a static, or
   is stored into a field (or array) of an escaping class; least fixed
   point over the recorded flows.  A program that never instantiates a
   ``Thread`` subclass is single-threaded and trivially race-free.

3. **Eraser locksets** — per-method CFG dataflow tracking the multiset
   of class-granular monitor tokens held at every field access on a
   shared target, with *interprocedural* entry locksets (the
   intersection of locks held at every reachable call site, to a
   fixpoint — a callee only ever invoked under a lock inherits it).
   A shared field written outside its constructor whose candidate
   lockset (the intersection across all accesses) is empty becomes a
   ``race-warning`` with class/field/pc/lockset evidence.  Nested
   acquisitions feed the :class:`~repro.analysis.locks.LockOrderGraph`
   whose cycles become ``deadlock-potential`` warnings.

Known imprecision, by design (Eraser's, not ours): synchronization via
fork/join ordering or the scheduler's serialization is invisible to
locksets, so e.g. an accumulator handed from a worker (under its lock)
to the main thread (after ``join``, lockless) is reported.  That is the
safe direction: the harness cross-check (``--race-check``) only needs
the static set to be a *superset* of the dynamically confirmed races.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.analysis.callgraph import (
    CallGraph,
    ClassHierarchy,
    build_call_graph,
)
from repro.analysis.findings import AnalysisReport, Finding, Severity
from repro.analysis.locks import LockOrderGraph
from repro.bytecode.flow import CFG, build_cfg
from repro.bytecode.opcodes import SPECS, Op
from repro.classfile.constant_pool import (
    CpClass,
    CpFieldRef,
    CpMethodRef,
)
from repro.classfile.members import parse_descriptor
from repro.errors import ClassFileError, ConstantPoolError, VerifyError

THREAD_CLASS = "java.lang.Thread"

#: Abstract array value / array container key.
ARRAY = "[]"
#: Container key for all static fields (always escaping).
STATIC = "<static>"

_EMPTY: FrozenSet[str] = frozenset()


@dataclass
class _FieldStats:
    """Eraser state for one field."""

    candidate: Optional[FrozenSet[str]] = None  # running intersection
    writes_outside_init: int = 0
    thread_reachable: bool = False
    #: (method qname, pc, op, lockset) evidence, capped.
    accesses: List[Tuple[str, int, str, Tuple[str, ...]]] = \
        field(default_factory=list)

    def record(self, qname: str, pc: int, op: str,
               lockset: FrozenSet[str], in_thread: bool) -> None:
        self.candidate = (lockset if self.candidate is None
                          else self.candidate & lockset)
        if in_thread:
            self.thread_reachable = True
        if len(self.accesses) < 16:
            self.accesses.append(
                (qname, pc, op, tuple(sorted(lockset))))


@dataclass
class RaceAnalysis:
    """Everything the static side produced."""

    report: AnalysisReport
    #: Classes whose instances may be reached by more than one thread.
    shared_classes: Set[str]
    #: ``(declaring class, field)`` of every race-warning — the set the
    #: harness intersects dynamic races against.
    racy_fields: Set[Tuple[str, str]]
    lock_order: LockOrderGraph
    multithreaded: bool
    #: Unguarded accesses backing the warnings (metrics counter).
    lockset_violations: int = 0

    @property
    def race_warnings(self) -> int:
        return sum(1 for f in self.report.findings
                   if f.rule == "race-warning")

    @property
    def deadlock_potentials(self) -> int:
        return sum(1 for f in self.report.findings
                   if f.rule == "deadlock-potential")

    def to_json(self) -> dict:
        return {
            "multithreaded": self.multithreaded,
            "shared_classes": sorted(self.shared_classes),
            "race_warnings": self.race_warnings,
            "deadlock_potentials": self.deadlock_potentials,
            "lockset_violations": self.lockset_violations,
            "racy_fields": sorted(
                [c, f] for c, f in self.racy_fields),
            "lock_order": self.lock_order.to_json(),
            "findings": [f.to_json() for f in self.report.findings],
        }


# ---------------------------------------------------------------------------
# pass 1: flow collection (abstract interpretation)


class _Flows:
    """Global flow tables shared across methods, grown to fixpoint."""

    def __init__(self):
        #: (declaring class, field) -> classes stored there.
        self.field_contents: Dict[Tuple[str, str], Set[str]] = {}
        #: container (class name, ARRAY, or STATIC) -> stored classes.
        self.contains: Dict[str, Set[str]] = {}
        #: classes flowing out of arrays (single global array soup).
        self.array_contents: Set[str] = set()
        self.changed = False

    def store(self, container: str, values: FrozenSet[str]) -> None:
        if not values:
            return
        bucket = self.contains.setdefault(container, set())
        before = len(bucket)
        bucket.update(values)
        if len(bucket) != before:
            self.changed = True

    def put_field(self, key: Tuple[str, str],
                  values: FrozenSet[str]) -> None:
        if not values:
            return
        bucket = self.field_contents.setdefault(key, set())
        before = len(bucket)
        bucket.update(values)
        if len(bucket) != before:
            self.changed = True


class _Facts:
    """Per-method facts from the final interpretation pass."""

    def __init__(self):
        #: pc -> receiver/operand class set at MONITORENTER/EXIT.
        self.monitors: Dict[int, FrozenSet[str]] = {}
        #: pc -> (op, CpFieldRef, static?) for field accesses.
        self.accesses: Dict[int, Tuple[str, CpFieldRef, bool]] = {}


def _declared_set(type_str: str) -> FrozenSet[str]:
    if type_str.startswith("L"):
        return frozenset([type_str[1:-1]])
    if type_str.startswith("["):
        return frozenset([ARRAY])
    return _EMPTY


def _declaring(hierarchy: ClassHierarchy, class_name: str,
               field_name: str) -> str:
    """Resolve the class that declares ``field_name``, mirroring the
    VM's resolution (search up the superclass chain)."""
    for cf in hierarchy.superclass_chain(class_name):
        if cf.find_field(field_name) is not None:
            return cf.name
    return class_name


def _interpret(cf, method, cfg: CFG, hierarchy: ClassHierarchy,
               flows: _Flows, facts: Optional[_Facts]) -> None:
    """One abstract-interpretation pass over ``method``."""
    code = method.code
    params, _ret = parse_descriptor(method.descriptor)
    locals0: List[FrozenSet[str]] = []
    if not method.is_static:
        locals0.append(frozenset([cf.name]))
    for p in params:
        locals0.append(_declared_set(p))
    while len(locals0) < method.max_locals:
        locals0.append(_EMPTY)

    pool = cf.constant_pool
    n_blocks = len(cfg.blocks)
    in_states: List[Optional[Tuple[tuple, tuple]]] = [None] * n_blocks
    in_states[0] = (tuple(locals0), ())
    for block in cfg.blocks:
        if block.is_handler and in_states[block.index] is None:
            # handler entry: locals merged lazily below; stack is the
            # thrown exception (class unknown)
            in_states[block.index] = (tuple(locals0), (_EMPTY,))
    worklist = [0] + [b.index for b in cfg.blocks if b.is_handler]
    on_list = set(worklist)

    def merge_into(index: int, state: Tuple[tuple, tuple]) -> None:
        old = in_states[index]
        if old is None:
            in_states[index] = state
        else:
            old_l, old_s = old
            new_l, new_s = state
            if len(old_s) != len(new_s):
                return  # verifier territory; skip the merge
            merged_l = tuple(a | b for a, b in zip(old_l, new_l))
            merged_s = tuple(a | b for a, b in zip(old_s, new_s))
            merged = (merged_l, merged_s)
            if merged == old:
                return
            in_states[index] = merged
        if index not in on_list:
            worklist.append(index)
            on_list.add(index)

    while worklist:
        index = worklist.pop()
        on_list.discard(index)
        state = in_states[index]
        if state is None:
            continue
        block = cfg.blocks[index]
        locs = list(state[0])
        stack = list(state[1])
        ok = True
        for pc in range(block.start, block.end):
            ins = code[pc]
            op = ins.op
            spec = SPECS[op]
            try:
                if op is Op.NEW:
                    cname = pool.get_typed(ins.operand, CpClass).name
                    stack.append(frozenset([cname]))
                elif op is Op.CHECKCAST:
                    cname = pool.get_typed(ins.operand, CpClass).name
                    stack[-1] = frozenset([cname])
                elif op is Op.INSTANCEOF:
                    stack[-1] = _EMPTY
                elif op in (Op.ALOAD, Op.ILOAD):
                    stack.append(locs[ins.operand])
                elif op in (Op.ASTORE, Op.ISTORE):
                    locs[ins.operand] = stack.pop()
                elif op is Op.DUP:
                    stack.append(stack[-1])
                elif op is Op.DUP_X1:
                    stack.insert(-2, stack[-1])
                elif op is Op.SWAP:
                    stack[-1], stack[-2] = stack[-2], stack[-1]
                elif op is Op.NEWARRAY:
                    stack[-1] = frozenset([ARRAY])
                elif op is Op.AALOAD:
                    stack.pop()
                    stack.pop()
                    stack.append(frozenset(flows.array_contents))
                elif op is Op.AASTORE:
                    value = stack.pop()
                    stack.pop()
                    stack.pop()
                    flows.store(ARRAY, value)
                    before = len(flows.array_contents)
                    flows.array_contents.update(value)
                    if len(flows.array_contents) != before:
                        flows.changed = True
                elif op is Op.GETFIELD:
                    ref = pool.get_typed(ins.operand, CpFieldRef)
                    receivers = stack.pop()
                    key = (_declaring(hierarchy, ref.class_name,
                                      ref.field_name), ref.field_name)
                    stack.append(frozenset(
                        flows.field_contents.get(key, ())))
                    if facts is not None:
                        facts.accesses[pc] = ("read", ref, False)
                elif op is Op.PUTFIELD:
                    ref = pool.get_typed(ins.operand, CpFieldRef)
                    value = stack.pop()
                    receivers = stack.pop()
                    key = (_declaring(hierarchy, ref.class_name,
                                      ref.field_name), ref.field_name)
                    flows.put_field(key, value)
                    for container in (receivers or
                                      frozenset([ref.class_name])):
                        flows.store(container, value)
                    if facts is not None:
                        facts.accesses[pc] = ("write", ref, False)
                elif op is Op.GETSTATIC:
                    ref = pool.get_typed(ins.operand, CpFieldRef)
                    key = (_declaring(hierarchy, ref.class_name,
                                      ref.field_name), ref.field_name)
                    stack.append(frozenset(
                        flows.field_contents.get(key, ())))
                    if facts is not None:
                        facts.accesses[pc] = ("read", ref, True)
                elif op is Op.PUTSTATIC:
                    ref = pool.get_typed(ins.operand, CpFieldRef)
                    value = stack.pop()
                    key = (_declaring(hierarchy, ref.class_name,
                                      ref.field_name), ref.field_name)
                    flows.put_field(key, value)
                    flows.store(STATIC, value)
                    if facts is not None:
                        facts.accesses[pc] = ("write", ref, True)
                elif op in (Op.MONITORENTER, Op.MONITOREXIT):
                    operand = stack.pop()
                    if facts is not None:
                        facts.monitors[pc] = operand
                elif op in (Op.INVOKESTATIC, Op.INVOKEVIRTUAL,
                            Op.INVOKESPECIAL):
                    ref = pool.get_typed(ins.operand, CpMethodRef)
                    cparams, cret = parse_descriptor(ref.descriptor)
                    pops = len(cparams) + \
                        (0 if op is Op.INVOKESTATIC else 1)
                    del stack[len(stack) - pops:]
                    if cret != "V":
                        stack.append(_declared_set(cret))
                else:
                    # generic stack effect (arithmetic, branches, ...)
                    pops, pushes = spec.pops, spec.pushes
                    if pops:
                        del stack[len(stack) - pops:]
                    for _ in range(pushes):
                        stack.append(_EMPTY)
            except (IndexError, ConstantPoolError, ClassFileError):
                ok = False
                break
        if not ok:
            continue
        out = (tuple(locs), tuple(stack))
        for succ in block.successors:
            if cfg.blocks[succ].is_handler:
                # locals flow into the handler; its stack is fixed
                handler_state = in_states[succ]
                merged_l = tuple(
                    a | b for a, b in zip(handler_state[0], out[0]))
                if merged_l != handler_state[0]:
                    in_states[succ] = (merged_l, handler_state[1])
                    if succ not in on_list:
                        worklist.append(succ)
                        on_list.add(succ)
            else:
                merge_into(succ, out)


# ---------------------------------------------------------------------------
# pass 3: lockset dataflow


def _lockset_pass(method, cfg: CFG, facts: _Facts,
                  entry: FrozenSet[str]) -> Dict[int, FrozenSet[str]]:
    """Per-pc held locksets for the pcs in ``facts`` (field accesses,
    monitor enters, and call sites), given the method's interprocedural
    entry lockset."""
    code = method.code
    entry_state = {token: 1 for token in entry}
    n_blocks = len(cfg.blocks)
    in_states: List[Optional[Dict[str, int]]] = [None] * n_blocks
    in_states[0] = dict(entry_state)
    for block in cfg.blocks:
        if block.is_handler:
            # conservative: a handler may be reached from anywhere in
            # the try range, so only the entry lockset is guaranteed
            in_states[block.index] = dict(entry_state)
    worklist = [b.index for b in cfg.blocks
                if in_states[b.index] is not None]
    on_list = set(worklist)
    held_at: Dict[int, FrozenSet[str]] = {}

    while worklist:
        index = worklist.pop()
        on_list.discard(index)
        state = in_states[index]
        if state is None:
            continue
        held = dict(state)
        block = cfg.blocks[index]
        for pc in range(block.start, block.end):
            ins = code[pc]
            op = ins.op
            if pc in facts.accesses or op in (
                    Op.INVOKESTATIC, Op.INVOKEVIRTUAL,
                    Op.INVOKESPECIAL):
                held_at[pc] = frozenset(
                    t for t, n in held.items() if n > 0)
            if op is Op.MONITORENTER:
                operand = facts.monitors.get(pc, _EMPTY)
                held_at.setdefault(pc, frozenset(
                    t for t, n in held.items() if n > 0))
                if len(operand) == 1:
                    token = next(iter(operand))
                    held[token] = held.get(token, 0) + 1
            elif op is Op.MONITOREXIT:
                operand = facts.monitors.get(pc, _EMPTY)
                if len(operand) == 1:
                    token = next(iter(operand))
                    if held.get(token, 0) > 0:
                        held[token] -= 1
        out = {t: n for t, n in held.items() if n > 0}
        for succ in block.successors:
            if cfg.blocks[succ].is_handler:
                continue  # pinned to the entry lockset
            old = in_states[succ]
            if old is None:
                in_states[succ] = dict(out)
                changed = True
            else:
                # intersection: a lock is held only if held on every
                # path (per-token minimum count)
                merged = {t: min(n, old[t]) for t, n in out.items()
                          if t in old and min(n, old[t]) > 0}
                changed = merged != old
                if changed:
                    in_states[succ] = merged
            if changed and succ not in on_list:
                worklist.append(succ)
                on_list.add(succ)
    return held_at


# ---------------------------------------------------------------------------
# driver


def analyze_races(hierarchy: ClassHierarchy,
                  graph: Optional[CallGraph] = None) -> RaceAnalysis:
    """Run escape + lockset + lock-order analysis over ``hierarchy``."""
    if graph is None:
        graph = build_call_graph(hierarchy)
    reachable = sorted(graph.reachable())
    report = AnalysisReport()
    lock_order = LockOrderGraph()

    # one CFG per method with code, shared by every round of both
    # dataflow passes; malformed code is the verifier's to report
    cfgs: Dict[str, CFG] = {}
    for qname in reachable:
        method = graph.methods.get(qname)
        if method is None or not method.code:
            continue
        try:
            cfgs[qname] = build_cfg(method.code, method.exception_table)
        except VerifyError:
            continue

    # -- pass 1: flows, to fixpoint, then a facts-recording pass
    flows = _Flows()
    for _round in range(20):
        flows.changed = False
        for qname, cfg in cfgs.items():
            cf = hierarchy.get(graph.owner[qname])
            _interpret(cf, graph.methods[qname], cfg, hierarchy, flows,
                       None)
        if not flows.changed:
            break
    facts: Dict[str, _Facts] = {}
    for qname, cfg in cfgs.items():
        f = _Facts()
        cf = hierarchy.get(graph.owner[qname])
        _interpret(cf, graph.methods[qname], cfg, hierarchy, flows, f)
        facts[qname] = f

    # -- pass 2: thread-escape
    thread_classes = {
        container for container in flows.contains
        if container not in (STATIC, ARRAY)
        and _is_thread_subclass(hierarchy, container)}
    # seeds must come from instantiation, not storage: collect NEW'd
    # Thread subclasses from the interpreted flow (any class stored
    # anywhere was NEW'd or loaded; check all classes seen)
    for qname in reachable:
        method = graph.methods.get(qname)
        if method is None or not method.code:
            continue
        cf = hierarchy.get(graph.owner[qname])
        for ins in method.code:
            if ins.op is Op.NEW:
                try:
                    cname = cf.constant_pool.get_typed(
                        ins.operand, CpClass).name
                except (ConstantPoolError, ClassFileError):
                    continue
                if _is_thread_subclass(hierarchy, cname):
                    thread_classes.add(cname)
    multithreaded = bool(thread_classes)
    if not multithreaded:
        return RaceAnalysis(report=report, shared_classes=set(),
                            racy_fields=set(), lock_order=lock_order,
                            multithreaded=False)

    shared: Set[str] = set(thread_classes)
    escaping_containers = {STATIC}
    while True:
        grew = False
        for container, values in flows.contains.items():
            if container in escaping_containers or container in shared:
                for v in values:
                    if v == ARRAY:
                        if ARRAY not in escaping_containers:
                            escaping_containers.add(ARRAY)
                            grew = True
                    elif v not in shared:
                        shared.add(v)
                        grew = True
        if ARRAY in escaping_containers:
            for v in flows.array_contents:
                if v != ARRAY and v not in shared:
                    shared.add(v)
                    grew = True
        if not grew:
            break

    # -- pass 3: interprocedural entry locksets, to fixpoint
    sites_by_caller: Dict[str, List] = {}
    for site in graph.call_sites:
        sites_by_caller.setdefault(site.caller, []).append(site)
    entry_locks: Dict[str, Optional[FrozenSet[str]]] = {}
    for qname in graph.entry_points:
        entry_locks[qname] = _EMPTY
    held_maps: Dict[str, Dict[int, FrozenSet[str]]] = {}
    for _round in range(20):
        changed = False
        for qname, cfg in cfgs.items():
            entry = entry_locks.get(qname)
            if entry is None:
                continue
            held_at = _lockset_pass(graph.methods[qname], cfg,
                                    facts[qname], entry)
            held_maps[qname] = held_at
            for site in sites_by_caller.get(qname, ()):
                at_site = held_at.get(site.pc, _EMPTY)
                for target in site.targets:
                    old = entry_locks.get(target)
                    merged = at_site if old is None else old & at_site
                    if merged != old:
                        entry_locks[target] = merged
                        changed = True
        if not changed:
            break

    # thread-context reachability: accesses on a path from run()V can
    # execute concurrently with main (and with other instances)
    run_roots = [q for q in graph.entry_points
                 if q.endswith(".run()V")]
    thread_reachable = graph.reachable(roots=run_roots)

    # -- Eraser accumulation + lock-order edges
    stats: Dict[Tuple[str, str, bool], _FieldStats] = {}
    for qname in reachable:
        method = graph.methods.get(qname)
        f = facts.get(qname)
        held_at = held_maps.get(qname)
        if method is None or f is None or held_at is None:
            continue
        owner = graph.owner[qname]
        owner_chain = {c.name for c in
                       hierarchy.superclass_chain(owner)}
        in_thread = qname in thread_reachable
        for pc, (op, ref, is_static) in sorted(f.accesses.items()):
            declaring = _declaring(hierarchy, ref.class_name,
                                   ref.field_name)
            if method.name == "<init>" and not is_static and \
                    declaring in owner_chain:
                continue  # object under construction, not yet shared
            if method.name == "<clinit>" and is_static and \
                    declaring in owner_chain:
                continue  # class initialization is single-threaded
            if not is_static and not _shared_instance(
                    hierarchy, shared, declaring, ref.class_name):
                continue
            key = (declaring, ref.field_name, is_static)
            stat = stats.setdefault(key, _FieldStats())
            if op == "write":
                stat.writes_outside_init += 1
            stat.record(qname, pc, op, held_at.get(pc, _EMPTY),
                        in_thread)
        for pc, operand in sorted(f.monitors.items()):
            if method.code[pc].op is not Op.MONITORENTER:
                continue
            if len(operand) != 1:
                continue
            acquired = next(iter(operand))
            for held in held_at.get(pc, _EMPTY):
                if held != acquired:
                    lock_order.add_edge(held, acquired, qname, pc)

    # -- findings
    racy_fields: Set[Tuple[str, str]] = set()
    violations = 0
    for (declaring, field_name, is_static), stat in sorted(
            stats.items()):
        if stat.writes_outside_init == 0:
            continue
        if not stat.thread_reachable:
            continue
        if stat.candidate:
            continue  # consistently guarded by at least one lock
        racy_fields.add((declaring, field_name))
        unguarded = [a for a in stat.accesses if not a[3]]
        violations += len(unguarded)
        first_write = next(
            (a for a in stat.accesses if a[2] == "write"),
            stat.accesses[0])
        locksets = sorted({"{%s}" % ", ".join(a[3]) if a[3] else "{}"
                           for a in stat.accesses})
        where = "; ".join(
            f"{m}@{pc} {op} {{{', '.join(ls)}}}"
            for m, pc, op, ls in stat.accesses[:4])
        scope = "static " if is_static else ""
        report.add(Finding(
            severity=Severity.WARNING,
            rule="race-warning",
            class_name=declaring,
            method="",  # sites span methods; evidence in the message
            message=(f"{scope}field {field_name} accessed under "
                     f"inconsistent locksets {' vs '.join(locksets)}: "
                     f"{where}"),
            pc=first_write[1],
        ))
    report.merge(lock_order.findings())

    return RaceAnalysis(
        report=report,
        shared_classes=shared,
        racy_fields=racy_fields,
        lock_order=lock_order,
        multithreaded=True,
        lockset_violations=violations,
    )


def _is_thread_subclass(hierarchy: ClassHierarchy, name: str) -> bool:
    return any(cf.name == THREAD_CLASS
               for cf in hierarchy.superclass_chain(name))


def _shared_instance(hierarchy: ClassHierarchy, shared: Set[str],
                     declaring: str, ref_class: str) -> bool:
    """A field access is on a shared object if the declaring class, the
    static receiver type, or any subclass of it escapes (an escaped
    subclass instance carries its superclasses' fields)."""
    if declaring in shared or ref_class in shared:
        return True
    return bool(hierarchy.subclasses(ref_class) & shared)


class RaceCheck:
    """Harness cross-check: every dynamically confirmed race must have
    a static ``race-warning`` (dynamic ⊆ static), mirroring the
    native-boundary check.  A violation means the static analysis is
    unsound for this program — a bug worth failing the run for."""

    def __init__(self, static_fields: Set[Tuple[str, str]],
                 dynamic_races: List[dict]):
        self.static_fields = set(static_fields)
        self.confirmed: List[dict] = list(dynamic_races)
        self.violations: List[dict] = [
            race for race in self.confirmed
            if (race["class"], race["field"]) not in self.static_fields]

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        if self.ok:
            return (f"race-check ok: {len(self.confirmed)} confirmed "
                    f"race(s), all statically predicted "
                    f"({len(self.static_fields)} static warning(s))")
        missing = ", ".join(
            f"{race['class']}.{race['field']}"
            for race in self.violations[:4])
        return (f"race-check FAILED: {len(self.violations)} confirmed "
                f"race(s) with no static warning: {missing}")

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "static_warnings": sorted(
                [c, f] for c, f in self.static_fields),
            "confirmed": self.confirmed,
            "violations": self.violations,
        }
