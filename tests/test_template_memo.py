"""The process-wide template plan memo.

A translation is made once per process per key (everything its source
depends on) and bound to each VM: the VM ``exec``s the plan's shared
code object into its own namespace and reads each per-site constant
from its own quickening table.  Nothing a VM owns may leak through a
plan, a hit must give exactly the source a fresh translation would,
the memo stays within its bound, and a run's outcome must not depend
on what the process translated before it.
"""

import sys
import threading

import pytest

from repro.analysis import typed_verifier
from repro.bytecode.assembler import ClassAssembler
from repro.classfile.serializer import shared_class
from repro.harness.config import AgentSpec, RunConfig
from repro.harness.runner import _build_vm, execute
from repro.jit import template as template_module
from repro.jit.policy import JitPolicy
from repro.jit.template import translate
from repro.jvm import classloader
from repro.jvm.machine import VMConfig
from repro.launcher import create_vm
from repro.service.warm import run_cold
from repro.workloads import base, get_workload

from helpers import build_app, expr_main, run_main
from test_charge_sequence import PINNED, charge_digest

memo = template_module._plans


def _run(name, agent=AgentSpec.none()):
    workload = get_workload(name)
    vm = _build_vm(workload, RunConfig(agent=agent))
    vm.launch(workload.main_class)
    return vm


def _templates(vm):
    """qualified name -> installed template function."""
    return {m.qualified_name: m.template for m in vm.jit.hot_methods
            if m.template is not None}


def _outcome(vm):
    return {
        "console": list(vm.console),
        "cycles": vm.total_cycles,
        "ground_truth": vm.ground_truth(),
        "instructions": vm.instructions_retired,
        "method_invocations": vm.method_invocations,
        "template_entries": vm.template_entries,
        "templates_translated": vm.jit.templates_translated,
        "osr_entries": vm.osr_entries,
        "deopts": dict(vm.template_deopts),
    }


def test_fresh_vms_share_code_objects_not_functions():
    first, second = _run("db"), _run("db")
    a, b = _templates(first), _templates(second)
    assert a and a.keys() == b.keys()
    for name in a:
        assert a[name] is not b[name]
        assert a[name].__code__ is b[name].__code__
        assert a[name].__globals__["vm"] is first
        assert b[name].__globals__["vm"] is second
        assert a[name].__globals__ is not b[name].__globals__
    assert _outcome(first) == _outcome(second)


def test_compiled_and_interpreted_costs_get_their_own_code():
    """SPA vetoes the JIT: its hot methods sum interpreted costs, so
    their source differs from the compiled run's."""
    compiled, vetoed = _run("db"), _run("db", AgentSpec.spa())
    a, b = _templates(compiled), _templates(vetoed)
    common = a.keys() & b.keys()
    assert common
    for name in common:
        assert a[name].__code__ is not b[name].__code__


def _twin_app():
    """The same arithmetic-only static method on two classes."""
    twins = []
    for name in ("tm.A", "tm.B"):
        c = ClassAssembler(name)
        with c.method("work", "(I)I", static=True) as m:
            m.iload(0).iconst(3).imul().iconst(1).iadd().ireturn()
        twins.append(c)

    def body(m):
        m.iconst(0).istore(0)
        m.iconst(0).istore(1)
        m.label("t")
        m.iload(1).ldc(200).if_icmpge("e")
        m.iload(0).invokestatic("tm.A", "work", "(I)I")
        m.invokestatic("tm.B", "work", "(I)I").istore(0)
        m.iinc(1, 1).goto("t")
        m.label("e")
        m.iload(0)

    return build_app(*twins, expr_main("tm.Main", body))


def test_identical_bodies_keep_their_own_code_objects():
    vm = run_main(_twin_app(), "tm.Main", config=VMConfig(
        jit_policy=JitPolicy(invoke_threshold=5, backedge_threshold=50)))
    a, b = (vm.loader.loaded_class(name).find_declared("work", "(I)I")
            for name in ("tm.A", "tm.B"))
    assert a.template is not None and b.template is not None
    cache = vm.jit.code_cache
    assert cache.source_for(a) == cache.source_for(b)
    assert a.template.__code__ is not b.template.__code__
    assert a.template.__code__.co_filename == "<template:tm.A.work(I)I>"
    assert b.template.__code__.co_filename == "<template:tm.B.work(I)I>"


def _many(count):
    """``count`` distinct static methods, loaded in a fresh VM."""
    c = ClassAssembler("tm.Many")
    for i in range(count):
        with c.method(f"m{i}", "()I", static=True) as m:
            m.ldc(i).ireturn()
    vm = create_vm()
    vm.loader.add_classpath_archive(build_app(c))
    loaded = vm.loader.load("tm.Many")
    return vm, [loaded.find_declared(f"m{i}", "()I") for i in range(count)]


def test_memo_is_bounded():
    bound = memo.cache_info().maxsize
    assert bound == template_module._PLAN_MEMO_SIZE
    memo.cache_clear()
    vm, methods = _many(bound + 8)
    first = [translate(method, vm)[0] for method in methods[:bound]]
    assert memo.cache_info().currsize == bound
    # a hit makes methods[0] the most recently used
    assert translate(methods[0], vm)[0].__code__ is first[0].__code__
    last = [translate(method, vm)[0] for method in methods[bound:]]
    info = memo.cache_info()
    assert info.currsize == bound
    assert (info.hits, info.misses) == (1, bound + 8)
    # least recently used first out: methods[1..8] were evicted and
    # translate afresh; methods[0], [9] and the newest are still shared
    assert translate(methods[0], vm)[0].__code__ is first[0].__code__
    assert translate(methods[9], vm)[0].__code__ is first[9].__code__
    assert translate(methods[-1], vm)[0].__code__ is last[-1].__code__
    assert translate(methods[1], vm)[0].__code__ is not first[1].__code__


def test_bailouts_are_not_memoized():
    memo.cache_clear()
    vm, methods = _many(2)
    policy = JitPolicy(template_code_limit=1)
    for _ in range(2):
        assert translate(methods[0], vm, policy=policy)[2] == "too_long"
    assert memo.cache_info().currsize == 0
    assert memo.cache_info().misses == 2


def _comparable(outcome):
    return {k: v for k, v in outcome.items() if k != "host_seconds"}


def _sources():
    return {plan.source for plan in memo._plans.values()}


def _clear_memos():
    memo.cache_clear()
    shared_class.cache_clear()
    classloader._verified_methods.cache_clear()
    typed_verifier._clean_report.cache_clear()
    base._authored.cache_clear()


def test_concurrent_cold_runs_match_serial():
    """Host threads racing on the plan memo (emptied first, so they
    translate and insert concurrently) each get the serial run's
    outcome, and the memo ends with the sources and the number of
    plans a serial fill makes.  The cold layers' memos are emptied too,
    so the threads also parse, verify and author concurrently; threads
    that miss the same class bytes at once share one parse, so they
    key the same plans."""
    names = ["db", "jess"] * 3
    _clear_memos()
    serial = {name: _comparable(run_cold(name)) for name in set(names)}
    filled = memo.cache_info()
    sources = _sources()
    assert sources
    _clear_memos()
    results = [None] * len(names)

    def worker(index, name):
        results[index] = _comparable(run_cold(name))

    threads = [threading.Thread(target=worker, args=(i, name))
               for i, name in enumerate(names)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    for thread in threads:
        assert not thread.is_alive()
    for name, result in zip(names, results):
        assert result == serial[name]
    raced = memo.cache_info()
    assert _sources() == sources
    assert raced.currsize == filled.currsize
    assert raced.hits + raced.misses == 3 * (filled.hits + filled.misses)


# -- hits are fresh translations ----------------------------------------------

JVM98 = ["compress", "jess", "db", "javac", "mpegaudio", "mtrt", "jack"]
CELL_AGENTS = {"none": AgentSpec.none, "spa": AgentSpec.spa,
               "ipa": AgentSpec.ipa, "callchain": AgentSpec.callchain}


def _cells():
    """(workload, agent, VMConfig fields) for the differential sweep."""
    for name in JVM98 + ["jbb2005", "fj-kmeans"]:
        for agent in CELL_AGENTS:
            yield name, agent, {}
        yield name, "none", {"verify": "typed"}
        # twice each: no other cell has their gates, so the second run
        # is the one whose translations hit
        for _ in range(2):
            yield name, "none", {"cores": 2}
            yield name, "none", {"sanitize": "race", "cores": 2}


def test_every_hit_matches_a_fresh_translation(monkeypatch):
    """Each plan hit is checked against a fresh translation of the same
    method in the same VM: same source, recipe, OSR map and layout."""
    original = template_module._plan
    compared = []

    def checked(method, vm, policy, exclude_ops, *form):
        hits = memo.cache_info().hits
        plan = original(method, vm, policy, exclude_ops, *form)
        if memo.cache_info().hits > hits:
            fresh = template_module._translate(method, vm, policy,
                                               exclude_ops, *form)
            assert fresh.source == plan.source, method.qualified_name
            assert fresh.recipe == plan.recipe
            assert fresh.osr_map == plan.osr_map
            assert fresh.structured == plan.structured
            compared.append(form)
        return plan

    monkeypatch.setattr(template_module, "_plan", checked)
    memo.cache_clear()
    for name, agent, vm_fields in _cells():
        workload = get_workload(name)
        vm = _build_vm(workload, RunConfig(
            agent=CELL_AGENTS[agent](), vm_config=VMConfig(**vm_fields)))
        vm.launch(workload.main_class)
        assert workload.validate(vm).ok, (name, agent, vm_fields)
    assert len(compared) > 400
    # OSR dispatch forms and counting forms hit too
    assert any(osr and not counting for osr, counting in compared)
    assert any(counting for _, counting in compared)


# -- each VM binds its own objects --------------------------------------------


def _dispatch_app():
    """``tm.Disp.call`` makes one virtual call; ``tm.MainBase`` calls it
    with a ``tm.Base`` receiver, ``tm.MainSub`` with a ``tm.Sub``."""
    base = ClassAssembler("tm.Base")
    with base.method("<init>", "()V") as m:
        m.return_()
    with base.method("pick", "()I") as m:
        m.iconst(1).ireturn()
    sub = ClassAssembler("tm.Sub", super_name="tm.Base")
    with sub.method("<init>", "()V") as m:
        m.return_()
    with sub.method("pick", "()I") as m:
        m.iconst(2).ireturn()
    disp = ClassAssembler("tm.Disp")
    with disp.method("call", "(Ltm.Base;)I", static=True) as m:
        m.aload(0).invokevirtual("tm.Base", "pick", "()I").ireturn()

    def main(class_name, receiver):
        def body(m):
            m.new(receiver).dup()
            m.invokespecial(receiver, "<init>", "()V").astore(0)
            m.iconst(0).istore(1)
            m.iconst(0).istore(2)
            m.label("t")
            m.iload(2).ldc(100).if_icmpge("e")
            m.aload(0).invokestatic("tm.Disp", "call", "(Ltm.Base;)I")
            m.iload(1).iadd().istore(1)
            m.iinc(2, 1).goto("t")
            m.label("e")
            m.iload(1)
        return expr_main(class_name, body)

    return build_app(base, sub, disp, main("tm.MainBase", "tm.Base"),
                     main("tm.MainSub", "tm.Sub"))


def test_vms_sharing_a_plan_bind_their_own_objects():
    app = _dispatch_app()
    config = VMConfig(jit_policy=JitPolicy(invoke_threshold=5))
    first = run_main(app, "tm.MainBase", config=config)
    call_a = first.loader.loaded_class("tm.Disp").find_declared(
        "call", "(Ltm.Base;)I")
    pic_a = call_a.quick[1]
    seen = list(pic_a)
    misses = first.ic_misses
    hits = memo.cache_info().hits
    second = run_main(app, "tm.MainSub", config=config)
    assert memo.cache_info().hits > hits
    call_b = second.loader.loaded_class("tm.Disp").find_declared(
        "call", "(Ltm.Base;)I")
    a, b = call_a.template, call_b.template
    assert a.__code__ is b.__code__
    for func, vm, method in ((a, first, call_a), (b, second, call_b)):
        assert func.__globals__["vm"] is vm
        assert func.__globals__["QK"] is method.quick
        assert func.__globals__["Q1"] is method.quick[1]
    assert call_a.quick[1] is not call_b.quick[1]
    # the second VM's PIC missed on tm.Sub; the first VM's PIC and
    # counters did not see it
    assert call_b.quick[1][4] is second.loader.loaded_class("tm.Sub")
    assert list(pic_a) == seen
    assert pic_a[4] is first.loader.loaded_class("tm.Base")
    assert first.ic_misses == misses
    assert first.console[-1] == "100" and second.console[-1] == "200"


def _cold_app():
    c = ClassAssembler("tm.Cold")
    c.field("v", static=True, default=5)
    with c.method("k", "()I", static=True) as m:
        m.getstatic("tm.Cold", "v").ldc(7).iadd().ireturn()

    def body(m):
        m.iconst(0).istore(0)
        m.iconst(0).istore(1)
        m.label("t")
        m.iload(1).ldc(50).if_icmpge("e")
        m.invokestatic("tm.Cold", "k", "()I").iload(0).iadd().istore(0)
        m.iinc(1, 1).goto("t")
        m.label("e")
        m.iload(0)

    return build_app(c, expr_main("tm.ColdMain", body))


def test_a_cold_site_gets_the_cold_guard_plan():
    """A VM that translates before quickening a site gets the plan with
    the cold guard, not another VM's quickened plan, and vice versa.
    With the JIT off both sum the interpreted costs, so only the sites
    tell the keys apart."""
    app = _cold_app()
    config = VMConfig(jit_policy=JitPolicy(enabled=False,
                                           invoke_threshold=5))
    hot = run_main(app, "tm.ColdMain", config=config)
    assert hot.console[-1] == "600"
    hot_k = hot.loader.loaded_class("tm.Cold").find_declared("k", "()I")
    quickened = hot.jit.code_cache.source_for(hot_k)
    assert quickened is not None and "QK[" not in quickened

    cold = create_vm(config)
    cold.loader.add_classpath_archive(app)
    cold_k = cold.loader.load("tm.Cold").find_declared("k", "()I")
    func, source, _ = translate(cold_k, cold, policy=config.jit_policy)
    assert "_q = QK[0]" in source and "_q = QK[1]" in source
    assert func.__code__ is not hot_k.template.__code__
    # the quickened plan is still the hot VM's, and a VM that runs the
    # program quickens first and then shares it
    assert translate(hot_k, hot, policy=config.jit_policy)[1] == quickened
    warm = run_main(app, "tm.ColdMain", config=config)
    warm_k = warm.loader.loaded_class("tm.Cold").find_declared("k", "()I")
    assert warm_k.template.__code__ is hot_k.template.__code__
    assert warm_k.template.__globals__["D0"] is \
        warm.loader.loaded_class("tm.Cold").statics


# -- translation-time gates are part of the key -------------------------------


@pytest.mark.parametrize("name,cores", sorted(PINNED))
def test_gates_keep_pinned_charge_sequences(name, cores):
    """A run without a sampler at one core fills the memo with plans
    that write charges out inline and have no safepoints; a recorded
    run of the same program after it (at its pinned core count) must
    still make its own plans and its pinned charge sequence."""
    execute(get_workload(name), RunConfig(vm_config=VMConfig(cores=1)))
    assert charge_digest(name, cores) == PINNED[(name, cores)]


def test_multicore_run_after_single_core_keeps_its_safepoints():
    single = _run("fj-kmeans")
    workload = get_workload("fj-kmeans")
    vm = _build_vm(workload, RunConfig(vm_config=VMConfig(cores=2)))
    vm.launch(workload.main_class)
    cache = vm.jit.code_cache
    sources = [cache.source_for(m) for m in vm.jit.hot_methods
               if cache.source_for(m) is not None]
    assert any("SP.preempt(thread)" in source for source in sources)
    assert not any("SP." in (single.jit.code_cache.source_for(m) or "")
                   for m in single.jit.hot_methods)
    assert workload.validate(vm).ok
