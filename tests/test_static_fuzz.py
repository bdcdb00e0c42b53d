"""Mutation fuzz over the static passes and class loading.

Seeded mutants of methods reachable from ``main`` in four workloads go
through the structural verifier and the whole analysis (typed verifier,
call graph, race passes).  Each mutant must be accepted by
:func:`verify_class` or rejected with a
:class:`~repro.errors.VerifyError`, and :func:`analyze_archives` must
return a report, never raise: malformed code becomes a finding, not a
raw Python exception.  Then two fresh VMs in this process load the
mutated class under ``structural`` and under ``typed`` verification:
the second VM reads the parse and verification memos the first one
filled (a failure is never memoized), and the two must end alike, with
the same :mod:`repro.errors` exception type and message or the same
``methods_verified``.

Four mutations, applied to one instruction of one method: swap the
opcode for another with the same operand kind, turn the instruction
into a ``goto`` whose target is drawn from ``[-2, len + 2]``, delete it,
or insert a ``pop`` before it.  Branch targets and exception ranges are
left as they were, so deletions and insertions also shift them.
"""

import random

import pytest

from repro.analysis import analyze_archives, build_call_graph, build_hierarchy
from repro.bytecode.instructions import Instruction
from repro.bytecode.opcodes import SPECS, Op
from repro.bytecode.verifier import verify_class
from repro.classfile.archive import ClassArchive
from repro.errors import ReproError, VerifyError
from repro.jvm.machine import JavaVM, VMConfig
from repro.launcher import runtime_archive
from repro.workloads import get_workload

#: Mutants per workload; the four workloads take about 16 s together.
MUTANTS = 75

_SAME_KIND = {}
for _op, _spec in SPECS.items():
    _SAME_KIND.setdefault(_spec.operand, []).append(_op)


def _mutate(code, rng):
    """A mutated copy of ``code`` and the name of the mutation."""
    code = list(code)
    pc = rng.randrange(len(code))
    ins = code[pc]
    kind = rng.choice(("swap", "goto", "delete", "pop"))
    if kind == "swap":
        others = [op for op in _SAME_KIND[ins.spec.operand]
                  if op is not ins.op]
        if not others:
            kind = "goto"
        else:
            code[pc] = Instruction(rng.choice(others), ins.operand)
    if kind == "goto":
        code[pc] = Instruction(Op.GOTO, rng.randint(-2, len(code) + 2))
    elif kind == "delete":
        del code[pc]
    elif kind == "pop":
        code.insert(pc, Instruction(Op.POP))
    return code, kind


def _reachable_methods(archives):
    """``(archive index, class, name, descriptor)`` of every method with
    code that is reachable from the program's entry points."""
    graph = build_call_graph(build_hierarchy(archives))
    found = []
    for qname in sorted(graph.reachable()):
        method = graph.methods.get(qname)
        if method is None or not method.code:
            continue
        owner = graph.owner[qname]
        index = next(i for i, a in enumerate(archives) if owner in a)
        found.append((index, owner, method.name, method.descriptor))
    return found


def _load(classpath, owner, mode):
    """Load ``owner`` in a fresh VM (outside any thread, so a class
    with a ``<clinit>`` ends in a ``VMError`` once it has linked): the
    structured error as ``(type, message)``, or ``methods_verified``."""
    vm = JavaVM(VMConfig(verify=mode))
    vm.loader.add_boot_archive(classpath[0])
    vm.loader.add_classpath_archive(classpath[1])
    try:
        vm.loader.load(owner)
    except ReproError as exc:
        return type(exc).__name__, str(exc)
    return vm.methods_verified


@pytest.mark.parametrize("workload,seed", [("fj-kmeans", 5),
                                           ("actors", 11), ("jess", 17),
                                           ("db", 23)])
def test_static_passes_survive_mutants(workload, seed):
    rng = random.Random(seed)
    archives = [runtime_archive(), get_workload(workload).archive]
    targets = _reachable_methods(archives)
    assert len(targets) >= 10
    escapes = []
    for _ in range(MUTANTS):
        index, owner, name, descriptor = rng.choice(targets)
        cf = archives[index].get_class(owner)
        method = cf.find_method(name, descriptor)
        method.code, kind = _mutate(method.code, rng)
        where = f"{owner}.{name}{descriptor} ({kind})"
        try:
            verify_class(cf)
        except VerifyError:
            pass
        except Exception as exc:
            escapes.append(f"verify_class: {where}: {exc!r}")
        mutated = ClassArchive()
        for entry in archives[index]:
            mutated.put_bytes(entry, archives[index].get_bytes(entry))
        mutated.put_class(cf)
        classpath = list(archives)
        classpath[index] = mutated
        try:
            analyze_archives(classpath, typed=True, races=True)
        except Exception as exc:
            escapes.append(f"analyze_archives: {where}: {exc!r}")
        for mode in ("structural", "typed"):
            try:
                first, second = (_load(classpath, owner, mode)
                                 for _ in range(2))
            except Exception as exc:
                escapes.append(f"load ({mode}): {where}: {exc!r}")
                continue
            if first != second:
                escapes.append(f"load ({mode}): {where}: the two VMs "
                               f"disagree: {first!r} vs {second!r}")
    assert escapes == []
