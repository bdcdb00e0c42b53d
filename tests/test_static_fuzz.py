"""Mutation fuzz over the static passes.

Seeded mutants of methods reachable from ``main`` in two multithreaded
workloads go through the structural verifier and the whole analysis
driver (typed verifier, call graph, race passes).  Each mutant must be
accepted by :func:`verify_class` or rejected with a
:class:`~repro.errors.VerifyError`, and :func:`analyze_archives` must
return a report, never raise: malformed code becomes a finding, not a
raw Python exception.

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
from repro.errors import VerifyError
from repro.launcher import runtime_archive
from repro.workloads import get_workload

#: Mutants per workload; the two workloads take about 5 s together.
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


@pytest.mark.parametrize("workload,seed", [("fj-kmeans", 5),
                                           ("actors", 11)])
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
    assert escapes == []
