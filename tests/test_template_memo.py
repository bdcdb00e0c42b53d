"""The process-wide template code memo.

``compile()`` of generated template source runs once per process per
``(source, filename)``; every VM ``exec``s the shared code object into
its own namespace.  Nothing a VM owns may leak through the shared code
object, the memo stays within its bound, and a run's outcome must not
depend on what the process compiled before it.
"""

import sys
import threading

from repro.bytecode.assembler import ClassAssembler
from repro.classfile.serializer import shared_class
from repro.harness.config import AgentSpec, RunConfig
from repro.harness.runner import _build_vm
from repro.jit import template as template_module
from repro.jit.policy import JitPolicy
from repro.jit.template import translate
from repro.jvm import classloader
from repro.jvm.machine import VMConfig
from repro.launcher import create_vm
from repro.service.warm import run_cold
from repro.workloads import base, get_workload

from helpers import build_app, expr_main, run_main

memo = template_module._compile_template


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


def test_memo_is_bounded():
    bound = memo.cache_info().maxsize
    assert bound == template_module._CODE_MEMO_SIZE
    count = bound + 8
    c = ClassAssembler("tm.Many")
    for i in range(count):
        with c.method(f"m{i}", "()I", static=True) as m:
            m.ldc(i).ireturn()
    vm = create_vm()
    vm.loader.add_classpath_archive(build_app(c))
    loaded = vm.loader.load("tm.Many")
    methods = [loaded.find_declared(f"m{i}", "()I") for i in range(count)]
    funcs = [translate(method, vm)[0] for method in methods]
    assert memo.cache_info().currsize == bound
    # least recently used first out: the newest entry is still shared,
    # the oldest was evicted and compiles afresh
    assert translate(methods[-1], vm)[0].__code__ is funcs[-1].__code__
    assert translate(methods[0], vm)[0].__code__ is not funcs[0].__code__


def _comparable(outcome):
    return {k: v for k, v in outcome.items() if k != "host_seconds"}


def test_concurrent_cold_runs_match_serial():
    """Host threads racing on the memo (emptied first, so they compile
    and insert concurrently) each get the serial run's outcome.  The
    cold layers' memos are emptied too, so the threads also parse,
    verify and author concurrently and link the same shared classes."""
    names = ["db", "jess"] * 3
    serial = {name: _comparable(run_cold(name)) for name in set(names)}
    memo.cache_clear()
    shared_class.cache_clear()
    classloader._verified_methods.cache_clear()
    base._authored.cache_clear()
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
