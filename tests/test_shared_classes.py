"""Cold layers once per process.

A parsed :class:`~repro.classfile.classfile.ClassFile` is shared
read-only by every VM that loads the same bytes
(:func:`repro.classfile.serializer.shared_class`), verification runs
once per (bytes, mode), the typed report once per bytes for the loaders
and ``analyze_archives`` alike, a method's template plan once per key,
and a registered workload's archive is authored once per scale.  A run
must not depend on whether those memos were cold or warm, nothing a VM
does may write into a shared class, and a bad class must fail alike in
every VM.
"""

import dataclasses
import threading
import time

import pytest

from repro.analysis import analyze_archives, typed_verifier
from repro.bytecode.assembler import ClassAssembler
from repro.classfile import serializer
from repro.classfile.archive import ClassArchive
from repro.classfile.serializer import dump_class, shared_class
from repro.errors import ClassFileError, VerifyError
from repro.harness.config import AgentSpec, RunConfig
from repro.harness.runner import _build_vm, execute
from repro.instrument import static_instr
from repro.jit import template
from repro.jit.policy import JitPolicy
from repro.jvm import classloader
from repro.jvm.machine import VMConfig
from repro.launcher import runtime_archive
from repro.service.warm import WarmVM, run_cold
from repro.workloads import base, get_workload

from helpers import build_app, expr_main, run_main
from test_agents import MixedWorkload

AGENTS = {"none": AgentSpec.none, "spa": AgentSpec.spa,
          "ipa": AgentSpec.ipa}


def _config(agent="none", tier="template", **vm):
    return RunConfig(agent=AGENTS[agent](), vm_config=VMConfig(
        jit_policy=JitPolicy(template_tier=tier == "template"), **vm))


def _clear_memos():
    shared_class.cache_clear()
    classloader._verified_methods.cache_clear()
    typed_verifier._clean_report.cache_clear()
    base._authored.cache_clear()
    static_instr._instrumented.cache_clear()
    template._plans.cache_clear()


def _observables(result):
    """Every ``RunResult`` field but the live agent object."""
    return {f.name: getattr(result, f.name)
            for f in dataclasses.fields(result) if f.name != "agent_object"}


@pytest.mark.parametrize("name,agent,tier", [
    ("jess", "none", "template"), ("jess", "none", "interp"),
    ("db", "spa", "template"), ("jess", "ipa", "template"),
])
def test_memo_cold_and_memo_warm_runs_agree(name, agent, tier):
    _clear_memos()
    cold = execute(get_workload(name), _config(agent, tier))
    parsed = shared_class.cache_info().misses
    warm = execute(get_workload(name), _config(agent, tier))
    assert shared_class.cache_info().misses == parsed  # nothing reparsed
    assert _observables(warm) == _observables(cold)


def _loaded(vm):
    return {cls.name: cls for cls in vm.loader.loaded_classes()}


def _assert_unmodified(vm):
    """Every class ``vm`` loaded from its archives is the memo's shared
    object, still serializes to its source bytes, and carries nothing
    on its instructions beyond opcode and operand."""
    loaded = _loaded(vm)
    checked = 0
    loader = vm.loader
    for archive in (loader.bootclasspath_prepend + loader.bootclasspath
                    + loader.classpath):
        for name in archive:
            cls = loaded.get(name)
            if cls is None:
                continue
            data = archive.get_bytes(name)
            assert cls.cf is shared_class(data)
            assert dump_class(cls.cf) == data
            for method in cls.cf.methods:
                for ins in method.code or ():
                    assert vars(ins).keys() == {"op", "operand"}
            checked += 1
    assert checked == len(loaded)


@pytest.mark.parametrize("tier", ["template", "interp"])
@pytest.mark.parametrize("agent", ["none", "spa", "ipa"])
def test_shared_classes_survive_runs_in_two_vms(agent, tier):
    vms = []
    for _ in range(2):
        workload = get_workload("jess")
        vm = _build_vm(workload, _config(agent, tier))
        vm.launch(workload.main_class)
        assert workload.validate(vm).ok
        vms.append(vm)
    first, second = (_loaded(vm) for vm in vms)
    assert first.keys() == second.keys()
    for name, cls in first.items():
        assert cls.cf is second[name].cf
        assert cls is not second[name]
    assert vms[0].methods_verified == vms[1].methods_verified > 0
    for vm in vms:
        _assert_unmodified(vm)


def test_shared_classes_survive_warm_requests():
    warm = WarmVM("db").warmup()
    for _ in range(2):
        assert warm.run()["ok"]
    assert run_cold("db")["ok"]
    _assert_unmodified(warm._vm)


def test_threads_missing_one_class_parse_it_once(monkeypatch):
    """Host threads that miss the same bytes at once all get one parsed
    object: the first parses, the others wait for it (the parse sleeps
    here, so without the lock every thread would miss)."""
    data = build_app(expr_main("t.Race", lambda m: m.iconst(1))) \
        .get_bytes("t.Race")
    parses = []
    original = serializer.load_class

    def slow_parse(raw):
        parses.append(raw)
        time.sleep(0.05)
        return original(raw)

    monkeypatch.setattr(serializer, "load_class", slow_parse)
    shared_class.cache_clear()
    start = threading.Barrier(6)
    results = [None] * 6

    def worker(index):
        start.wait()
        results[index] = shared_class(data)

    threads = [threading.Thread(target=worker, args=(i,))
               for i in range(6)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert len(parses) == 1
    assert results[0] is not None
    assert all(result is results[0] for result in results)
    assert shared_class.cache_info().misses == 1
    shared_class.cache_clear()


def _underflow_app():
    c = ClassAssembler("t.Bad")
    with c.method("main", "()V", static=True) as m:
        m.pop().return_()
    archive = ClassArchive()
    archive.put_bytes("t.Bad", dump_class(c.build(verify=False)))
    return archive


def _corrupt_app():
    good = build_app(expr_main("t.Bad", lambda m: m.iconst(1)))
    archive = ClassArchive()
    archive.put_bytes("t.Bad", good.get_bytes("t.Bad")[:40])
    return archive


@pytest.mark.parametrize("mode", ["structural", "typed"])
@pytest.mark.parametrize("app,error", [(_underflow_app, VerifyError),
                                       (_corrupt_app, ClassFileError)])
def test_bad_class_fails_alike_in_every_vm(app, error, mode):
    """Failures are never memoized: each VM parses and verifies the bad
    class itself and raises its own error, with the same text."""
    archive = app()
    messages = []
    for _ in range(3):
        with pytest.raises(error) as info:
            run_main(archive, "t.Bad", config=VMConfig(verify=mode))
        messages.append(str(info.value))
    assert len(set(messages)) == 1


def test_registry_archives_are_authored_once_per_scale():
    one = get_workload("db").archive
    assert get_workload("db").archive is one
    assert get_workload("db", scale=2).archive is not one
    base._authored.cache_clear()
    again = get_workload("db").archive
    assert again is not one
    assert again.to_bytes() == one.to_bytes()


def test_ad_hoc_workload_archives_are_per_instance():
    """Only the registered class of a name shares its archive: another
    class's may depend on more than ``scale``."""
    a, b = MixedWorkload(iterations=100), MixedWorkload(iterations=100)
    assert a.archive is not b.archive
    assert a.archive.to_bytes() == b.archive.to_bytes()
    assert MixedWorkload(iterations=200).archive.to_bytes() != \
        a.archive.to_bytes()
    subclass = type("Jess", (type(get_workload("jess")),), {})
    assert subclass().archive is not get_workload("jess").archive


def test_ipa_cells_share_one_instrumentation():
    """Registry archives are shared, so the archive-keyed
    instrumentation memo hits for every IPA run after the first."""
    static_instr._instrumented.cache_clear()
    for _ in range(2):
        execute(get_workload("jess"), _config("ipa"))
    info = static_instr._instrumented.cache_info()
    assert (info.hits, info.misses) == (1, 1)


def _count_typed_passes(monkeypatch):
    """class name -> typed passes run from now on."""
    counts = {}
    original = typed_verifier.analyze_class_types

    def counted(cf):
        counts[cf.name] = counts.get(cf.name, 0) + 1
        return original(cf)

    monkeypatch.setattr(typed_verifier, "analyze_class_types", counted)
    return counts


def test_typed_report_is_shared_by_analysis_and_loaders(monkeypatch):
    """``analyze_archives`` and the ``--verify typed`` loaders read one
    typed report per class bytes: after one analysis neither runs the
    typed pass again, and neither output moves."""
    _clear_memos()
    workload = get_workload("jess")

    def typed_run():
        vm = _build_vm(workload, _config(verify="typed"))
        vm.launch(workload.main_class)
        return vm

    cold_vm = typed_run()
    typed_verifier._clean_report.cache_clear()
    classloader._verified_methods.cache_clear()
    counts = _count_typed_passes(monkeypatch)
    archives = [runtime_archive(), workload.archive]
    first = analyze_archives(archives, typed=True).to_json()
    assert counts and set(counts.values()) == {1}
    analyzed = dict(counts)
    assert analyze_archives(archives, typed=True).to_json() == first
    warm_vm = typed_run()
    assert counts == analyzed
    assert warm_vm.methods_verified == cold_vm.methods_verified > 0


def test_rejected_typed_report_is_not_memoized(monkeypatch):
    """A class whose report has an error finding is analyzed again by
    every caller, and each one reports or raises its own error."""
    archive = _underflow_app()
    counts = _count_typed_passes(monkeypatch)
    for _ in range(2):
        report = analyze_archives([archive], typed=True).report
        assert [f.rule for f in report.errors] == ["structural"]
    for _ in range(2):
        with pytest.raises(VerifyError):
            run_main(archive, "t.Bad", config=VMConfig(verify="typed"))
    assert counts["t.Bad"] == 4
