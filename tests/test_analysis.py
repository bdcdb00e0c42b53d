"""Static analysis subsystem: CFG, typed verifier, CHA call graph,
native-boundary analysis, instrumentation linter, and their VM/harness
wiring."""

import dataclasses

import pytest
from helpers import build_app, expr_main, run_main

from repro.analysis import (
    Severity,
    analyze_archives,
    analyze_class_types,
    analyze_method_types,
    build_call_graph,
    build_hierarchy,
    cross_check,
    lint_classfile,
    static_native_check,
    typed_verify_class,
)
from repro.analysis.boundary import analyze_boundary
from repro.bytecode.assembler import ClassAssembler
from repro.bytecode.flow import build_cfg
from repro.bytecode.opcodes import Op
from repro.classfile.constant_pool import CpMethodRef
from repro.errors import VerifyError
from repro.instrument.static_instr import instrument_archives_cached
from repro.instrument.wrapper_gen import InstrumentationConfig
from repro.jvm.machine import VMConfig
from repro.launcher import runtime_archive


def _class(body, descriptor="()V", name="m", class_name="t.C",
           verify=True, static=True):
    c = ClassAssembler(class_name)
    with c.method(name, descriptor, static=static) as m:
        body(m)
    return c.build(verify=verify)


def _typed_findings(body, descriptor="()V", verify=True):
    cf = _class(body, descriptor=descriptor, verify=verify)
    return analyze_method_types(cf.methods[0], cf.constant_pool, cf.name)


def _rules(findings, severity=None):
    return {f.rule for f in findings
            if severity is None or f.severity is severity}


# -- CFG ----------------------------------------------------------------------


def test_cfg_straight_line_is_one_block():
    cf = _class(lambda m: m.iconst(1).pop().return_())
    cfg = build_cfg(cf.methods[0].code, [])
    assert len(cfg.blocks) == 1
    assert cfg.blocks[0].successors == []


def test_cfg_branch_splits_blocks_and_wires_successors():
    def body(m):
        m.iconst(1).ifeq("skip")
        m.iconst(2).pop()
        m.label("skip")
        m.return_()
    cf = _class(body)
    cfg = build_cfg(cf.methods[0].code, [])
    # entry (cond), fallthrough, join
    assert len(cfg.blocks) == 3
    entry = cfg.blocks[0]
    assert sorted(entry.successors) == [1, 2]
    assert all(b in {blk.index for blk in cfg.reachable_blocks()}
               for b in range(3))


def test_cfg_marks_handler_blocks_and_exception_reachability():
    def body(m):
        m.label("try")
        m.iconst(1).pop()
        m.label("end")
        m.return_()
        m.label("handler")
        m.athrow()
        m.try_catch("try", "end", "handler")
    cf = _class(body)
    method = cf.methods[0]
    cfg = build_cfg(method.code, method.exception_table)
    handlers = cfg.handler_blocks
    assert len(handlers) == 1
    assert handlers[0].is_handler
    # the handler is reachable only through the exception edge
    assert handlers[0].index in {b.index for b in cfg.reachable_blocks()}


def test_cfg_unreachable_block_detection():
    def body(m):
        m.goto("end")
        m.iconst(1).pop()   # dead
        m.label("end")
        m.return_()
    cf = _class(body)
    cfg = build_cfg(cf.methods[0].code, [])
    assert len(cfg.unreachable_blocks()) == 1


# -- typed verifier: clean code ------------------------------------------------


def test_typed_verifier_accepts_clean_method():
    def body(m):
        m.iconst(2).istore(0)
        m.iload(0).iconst(3).iadd().ireturn()
    assert _typed_findings(body, descriptor="()I") == []


def test_typed_verifier_accepts_float_int_polymorphism():
    # I-family arithmetic is polymorphic: int + float is legal
    def body(m):
        m.ldc(1.5).iconst(2).iadd().f2i().ireturn()
    assert _typed_findings(body, descriptor="()I") == []


def test_typed_verifier_accepts_runtime_library():
    report = analyze_archives([runtime_archive()]).report
    assert report.ok
    assert report.methods_analyzed > 50


# -- typed verifier: adversarial classes --------------------------------------


def test_typed_verifier_flags_ref_used_as_number():
    def body(m):
        m.aconst_null().iconst(1).iadd().pop().return_()
    findings = _typed_findings(body)
    assert "type-confusion" in _rules(findings, Severity.ERROR)


def test_typed_verifier_flags_number_used_as_ref():
    def body(m):
        m.iconst(7).athrow()
    findings = _typed_findings(body)
    assert "type-confusion" in _rules(findings, Severity.ERROR)


def test_typed_verifier_flags_type_confusion_at_join():
    # one path leaves an int on the stack, the other a reference;
    # the join value is then thrown (a ref use)
    def body(m):
        m.iload(0).ifeq("other")
        m.iconst(1).goto("join")
        m.label("other")
        m.aconst_null()
        m.label("join")
        m.athrow()
    findings = _typed_findings(body, descriptor="(I)V")
    assert "type-confusion" in _rules(findings, Severity.ERROR)


def test_typed_verifier_flags_local_type_conflict_at_join():
    # local 1 is an int on one path, a reference on the other
    def body(m):
        m.iload(0).ifeq("other")
        m.iconst(1).istore(1).goto("join")
        m.label("other")
        m.aconst_null().astore(1)
        m.label("join")
        m.iload(1).pop().return_()
    findings = _typed_findings(body, descriptor="(I)V")
    assert "type-confusion" in _rules(findings, Severity.ERROR)


def test_typed_verifier_flags_definite_uninitialized_use():
    def body(m):
        m.iload(1).pop().return_()   # local 1 never written
    findings = _typed_findings(body, descriptor="(I)V")
    errors = [f for f in findings if f.severity is Severity.ERROR]
    assert _rules(errors) == {"uninitialized-value"}
    assert errors[0].pc == 0


def test_typed_verifier_warns_maybe_uninitialized_use():
    # assignment happens only on one branch — a warning, not an error
    # (real loop idioms make the definite case unprovable)
    def body(m):
        m.iload(0).ifeq("skip")
        m.iconst(1).istore(1)
        m.label("skip")
        m.iload(1).pop().return_()
    findings = _typed_findings(body, descriptor="(I)V")
    assert _rules(findings, Severity.ERROR) == set()
    warnings = [f for f in findings if f.severity is Severity.WARNING]
    assert "uninitialized-value" in _rules(warnings)


def test_typed_verifier_flags_stack_depth_merge_conflict():
    # two paths reach the join with different stack depths; built
    # unverified because the structural pass rejects it too
    def body(m):
        m.iload(0).ifeq("other")
        m.iconst(1).iconst(2).goto("join")
        m.label("other")
        m.iconst(3)
        m.label("join")
        m.pop().return_()
    findings = _typed_findings(body, descriptor="(I)V", verify=False)
    assert "stack-merge" in _rules(findings, Severity.ERROR)


def test_typed_verifier_flags_stack_underflow():
    def body(m):
        m.pop().return_()
    findings = _typed_findings(body, verify=False)
    assert "stack-underflow" in _rules(findings, Severity.ERROR)


def test_typed_verifier_handler_entry_stack_is_the_thrown_ref():
    # inside the handler the stack is [ref]: adding to it is confusion
    def body(m):
        m.label("try")
        m.iconst(1).pop()
        m.label("end")
        m.return_()
        m.label("handler")
        m.iconst(1).iadd().pop().return_()   # ref + int
        m.try_catch("try", "end", "handler")
    findings = _typed_findings(body)
    assert "type-confusion" in _rules(findings, Severity.ERROR)


def test_typed_verifier_handler_sees_locals_from_protected_range():
    # local 1 is written inside the protected range before anything can
    # throw, but the handler may also be entered from the instruction
    # *before* the store — so its use in the handler is maybe-uninit
    def body(m):
        m.label("try")
        m.iconst(1).pop()            # can throw? no — but it is covered
        m.iconst(5).istore(1)
        m.iconst(1).pop()
        m.label("end")
        m.return_()
        m.label("handler")
        m.pop()
        m.iload(1).pop().return_()
        m.try_catch("try", "end", "handler")
    findings = _typed_findings(body)
    assert _rules(findings, Severity.ERROR) == set()
    assert "uninitialized-value" in _rules(findings, Severity.WARNING)


def test_typed_verifier_warns_unreachable_code():
    def body(m):
        m.goto("end")
        m.iconst(1).pop()
        m.label("end")
        m.return_()
    findings = _typed_findings(body)
    assert "unreachable-code" in _rules(findings, Severity.WARNING)
    assert _rules(findings, Severity.ERROR) == set()


def test_typed_verify_class_raises_structured_error():
    cf = _class(lambda m: m.iconst(7).athrow(), class_name="t.Bad")
    with pytest.raises(VerifyError) as info:
        typed_verify_class(cf)
    err = info.value
    assert err.class_name == "t.Bad"
    assert err.method == "m()V"
    assert err.pc is not None
    assert "t.Bad" in str(err)


def test_typed_verify_class_counts_methods():
    cf = _class(lambda m: m.return_())
    assert typed_verify_class(cf) == 1


def test_analyze_class_types_includes_structural_failures():
    cf = _class(lambda m: m.pop().return_(), verify=False)
    report = analyze_class_types(cf)
    assert not report.ok
    assert "structural" in {f.rule for f in report.errors}


# -- fuzz round-trip -----------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 7, 42])
def test_template_fuzz_classes_pass_typed_verification(seed):
    from test_template_fuzz import _generated_app

    archive = _generated_app(seed)
    for cf in archive.classes():
        assert typed_verify_class(cf) >= 1


def test_template_fuzz_runs_identically_under_typed_verify():
    from test_template_fuzz import _generated_app

    vm_off = run_main(_generated_app(3), "fz.Main",
                      config=VMConfig(verify="off"))
    vm_typed = run_main(_generated_app(3), "fz.Main",
                        config=VMConfig(verify="typed"))
    assert vm_off.console == vm_typed.console
    assert vm_off.total_cycles == vm_typed.total_cycles
    assert vm_typed.methods_verified > 0
    assert vm_off.methods_verified == 0


# -- CHA call graph ------------------------------------------------------------


def _hierarchy_app():
    base = ClassAssembler("t.Base")
    with base.method("work", "()I") as m:
        m.iconst(1).ireturn()
    sub = ClassAssembler("t.Sub", super_name="t.Base")
    with sub.method("work", "()I") as m:
        m.iconst(2).ireturn()
    other = ClassAssembler("t.Other", super_name="t.Base")
    # t.Other inherits work()I without overriding
    with other.method("idle", "()V") as m:
        m.return_()
    main = ClassAssembler("t.Main")
    with main.method("main", "()V", static=True) as m:
        m.new("t.Base")
        m.invokevirtual("t.Base", "work", "()I")
        m.pop().return_()
    return build_app(base, sub, other, main)


def test_cha_virtual_site_expands_to_overrides():
    graph = build_call_graph(build_hierarchy([_hierarchy_app()]))
    site = next(s for s in graph.call_sites
                if s.op is Op.INVOKEVIRTUAL)
    assert set(site.targets) == {"t.Base.work()I", "t.Sub.work()I"}


def test_cha_static_resolution_walks_superclasses():
    hierarchy = build_hierarchy([_hierarchy_app()])
    owner, method = hierarchy.resolve("t.Other", "work", "()I")
    assert owner == "t.Base" and method.name == "work"
    assert hierarchy.subclasses("t.Base") == {"t.Sub", "t.Other"}


def test_cha_entry_points_and_reachability():
    graph = build_call_graph(build_hierarchy([_hierarchy_app()]))
    assert "t.Main.main()V" in graph.entry_points
    reachable = graph.reachable()
    assert "t.Base.work()I" in reachable
    assert "t.Sub.work()I" in reachable       # CHA cone
    assert "t.Other.idle()V" not in reachable  # never called


def test_cha_unresolved_site_reported_as_info():
    c = ClassAssembler("t.Lost")
    with c.method("main", "()V", static=True) as m:
        m.invokestatic("t.Nowhere", "gone", "()V")
        m.return_()
    result = analyze_archives([build_app(c)])
    assert "unresolved-call" in {f.rule for f in result.report.findings
                                 if f.severity is Severity.INFO}
    assert result.report.ok  # infos do not gate


# -- native boundary -----------------------------------------------------------


def _native_app():
    c = ClassAssembler("t.Nat")
    c.native_method("zap", "()V", static=True)
    c.native_method("cold", "()V", static=True)   # never called
    with c.method("main", "()V", static=True) as m:
        m.invokestatic("t.Nat", "zap", "()V")
        m.return_()
    return build_app(c)


def test_boundary_declared_reachable_and_sites():
    graph = build_call_graph(build_hierarchy([_native_app()]))
    boundary = analyze_boundary(graph)
    assert boundary.declared_natives == {"t.Nat.zap()V", "t.Nat.cold()V"}
    assert boundary.reachable_natives == {"t.Nat.zap()V"}
    assert boundary.unreachable_natives == {"t.Nat.cold()V"}
    assert len(boundary.j2n_sites) == 1
    assert boundary.j2n_sites[0].targets == ["t.Nat.zap()V"]
    # non-native methods of a native-declaring class are N2J candidates
    assert "t.Nat.main()V" in boundary.n2j_candidates


def test_boundary_cross_check_superset_and_violation():
    graph = build_call_graph(build_hierarchy([_native_app()]))
    boundary = analyze_boundary(graph)
    ok = cross_check(boundary, ["t.Nat.zap()V"])
    assert ok.ok and ok.covered == {"t.Nat.zap()V"}
    assert ok.uncovered == {"t.Nat.cold()V"}
    assert 0.0 < ok.coverage < 1.0
    bad = cross_check(boundary, ["t.Nat.zap()V", "t.Ghost.boo()V"])
    assert not bad.ok and bad.violations == {"t.Ghost.boo()V"}


def test_boundary_cross_check_normalizes_instrumented_names():
    config = InstrumentationConfig()
    graph = build_call_graph(build_hierarchy([_native_app()]))
    boundary = analyze_boundary(graph)
    dynamic = [f"t.Nat.{config.prefix}zap()V",         # renamed native
               f"{config.runtime_class}.J2N_Begin()V"]  # agent runtime
    check = cross_check(boundary, dynamic, config)
    assert check.ok
    assert check.covered == {"t.Nat.zap()V"}


def test_static_boundary_is_superset_of_dynamic_for_real_workload():
    from repro.harness.config import AgentSpec, RunConfig
    from repro.harness.runner import execute
    from repro.workloads import get_workload

    workload = get_workload("compress")
    result = execute(workload, RunConfig(agent=AgentSpec.none()))
    assert result.native_methods_invoked, "run resolved no natives?"
    check = static_native_check([runtime_archive(), workload.archive],
                                result.native_methods_invoked)
    assert check.ok, f"dynamic-only natives: {check.violations}"


# -- instrumentation linter ----------------------------------------------------


def _instrumented_runtime(config):
    archives, _ = instrument_archives_cached([runtime_archive()], config)
    return archives[0]


def _find_wrapper(archive, config):
    for cf in archive.classes():
        for method in cf.methods:
            if method.code is None or \
                    method.name.startswith(config.prefix):
                continue
            if cf.find_method(config.prefix + method.name,
                              method.descriptor) is not None:
                return cf, method
    raise AssertionError("no instrumented wrapper found")


def test_linter_passes_freshly_instrumented_archive():
    config = InstrumentationConfig()
    archive = _instrumented_runtime(config)
    for cf in archive.classes():
        assert lint_classfile(cf, config) == []


def test_linter_flags_missing_j2n_end():
    config = InstrumentationConfig()
    archive = _instrumented_runtime(config)
    cf, wrapper = _find_wrapper(archive, config)
    for pc, ins in enumerate(wrapper.code):
        if ins.op is Op.INVOKESTATIC:
            ref = cf.constant_pool.get_typed(ins.operand, CpMethodRef)
            if ref.method_name == config.end_method:
                del wrapper.code[pc]
                wrapper.exception_table = [
                    dataclasses.replace(
                        entry,
                        handler=entry.handler - 1
                        if entry.handler > pc else entry.handler)
                    for entry in wrapper.exception_table]
                break
    rules = {f.rule for f in lint_classfile(cf, config)
             if f.severity is Severity.ERROR}
    assert "missing-end" in rules


def test_linter_flags_missing_catch_all_handler():
    config = InstrumentationConfig()
    archive = _instrumented_runtime(config)
    cf, wrapper = _find_wrapper(archive, config)
    wrapper.exception_table = []
    rules = {f.rule for f in lint_classfile(cf, config)}
    assert "missing-handler" in rules


def test_linter_flags_stacked_prefixes():
    config = InstrumentationConfig()
    c = ClassAssembler("t.Twice")
    c.native_method(f"{config.prefix}{config.prefix}zap", "()V",
                    static=True)
    rules = {f.rule for f in lint_classfile(c.build(), config)}
    assert "double-instrumentation" in rules


def test_linter_flags_wrapper_that_lost_native_target():
    config = InstrumentationConfig()
    c = ClassAssembler("t.Lost")
    # renamed native exists but is no longer native
    with c.method(f"{config.prefix}zap", "()V", static=True) as m:
        m.return_()
    findings = lint_classfile(c.build(), config)
    rules = {f.rule for f in findings}
    assert "renamed-not-native" in rules
    assert "missing-wrapper" in rules


def test_linter_flags_uninstrumented_native():
    config = InstrumentationConfig()
    c = ClassAssembler("t.Bare")
    c.native_method("zap", "()V", static=True)
    rules = {f.rule for f in lint_classfile(c.build(), config)}
    assert "native-not-wrapped" in rules
    assert lint_classfile(c.build(), config,
                          require_instrumented=False) == []


def test_linter_flags_instrumented_excluded_class():
    config = InstrumentationConfig()
    c = ClassAssembler(config.runtime_class)
    c.native_method(f"{config.prefix}J2N_Begin", "()V", static=True)
    rules = {f.rule for f in lint_classfile(c.build(), config)}
    assert "excluded-class-instrumented" in rules


# -- classloader wiring --------------------------------------------------------


def test_classloader_fails_fast_on_structural_error():
    from repro.classfile.archive import ClassArchive
    from repro.classfile.serializer import dump_class

    c = ClassAssembler("t.BadS")
    with c.method("main", "()V", static=True) as m:
        m.pop().return_()
    archive = ClassArchive()
    archive.put_bytes("t.BadS", dump_class(c.build(verify=False)))

    with pytest.raises(VerifyError) as info:
        run_main(archive, "t.BadS")
    err = info.value
    assert err.class_name == "t.BadS"
    assert err.method == "main()V"
    assert err.pc == 0


def test_classloader_typed_mode_catches_what_structural_misses():
    from repro.classfile.archive import ClassArchive
    from repro.classfile.serializer import dump_class

    # balanced stack depths (structurally fine) but a ref is added to
    # an int — only the typed verifier rejects it.  The bad method is
    # never called, so structural mode loads *and* runs the class.
    c = ClassAssembler("t.BadT")
    with c.method("bad", "()V", static=True) as m:
        m.aconst_null().iconst(1).iadd().pop().return_()
    with c.method("main", "()V", static=True) as m:
        m.return_()
    data = dump_class(c.build(verify=True))   # structural pass accepts

    archive = ClassArchive()
    archive.put_bytes("t.BadT", data)
    run_main(archive, "t.BadT",
             config=VMConfig(verify="structural"))  # loads and runs

    archive2 = ClassArchive()
    archive2.put_bytes("t.BadT", data)
    with pytest.raises(VerifyError) as info:
        run_main(archive2, "t.BadT", config=VMConfig(verify="typed"))
    assert info.value.class_name == "t.BadT"


def test_vm_counts_verified_methods_and_invoked_natives():
    def body(m):
        m.iconst(5)
    _, vm = _run_expr_with(body, VMConfig(verify="structural"))
    assert vm.methods_verified > 0
    assert vm.native_methods_invoked  # println's native backend


def _run_expr_with(body, config):
    vm = run_main(build_app(expr_main("t.Expr", body)), "t.Expr",
                  config=config)
    return int(vm.console[-1]), vm


def test_verify_modes_have_identical_accounting():
    def body(m):
        m.iconst(0).istore(1)
        m.iconst(0).istore(2)
        m.label("loop")
        m.iload(2).ldc(200).if_icmpge("done")
        m.iload(1).iload(2).iadd().istore(1)
        m.iinc(2, 1).goto("loop")
        m.label("done")
        m.iload(1)
    results = {}
    for mode in ("off", "structural", "typed"):
        value, vm = _run_expr_with(body, VMConfig(verify=mode))
        results[mode] = (value, vm.total_cycles,
                         vm.instructions_retired)
    assert results["off"] == results["structural"] == results["typed"]


def test_unknown_verify_mode_is_rejected():
    from repro.errors import VMError

    with pytest.raises(VMError):
        run_main(build_app(expr_main("t.Expr", lambda m: m.iconst(1))),
                 "t.Expr", config=VMConfig(verify="paranoid"))


# -- harness wiring ------------------------------------------------------------


def test_table2_boundary_check_passes_on_workload():
    from repro.harness.statistics import build_table2
    from repro.workloads import get_workload

    table = build_table2([get_workload("db")], boundary_check=True)
    assert table.boundary is not None
    check = table.boundary["db"]
    assert check.ok
    assert check.covered  # the run really hit natives
    summary = check.summary()
    assert "OK" in summary and "declared natives" in summary


# -- CLI ----------------------------------------------------------------------


def test_cli_analyze_clean_runtime_exits_zero(capsys):
    from repro.cli import main

    assert main(["analyze"]) == 0
    out = capsys.readouterr().out
    assert "0 errors" in out
    assert "native boundary:" in out


def test_cli_analyze_check_instrumentation_passes(capsys):
    from repro.cli import main

    assert main(["analyze", "--workload", "db",
                 "--check-instrumentation"]) == 0
    assert "0 errors" in capsys.readouterr().out


def test_cli_analyze_fails_on_corrupted_wrapper(tmp_path, capsys):
    from repro.cli import main
    from repro.classfile.archive import ClassArchive
    from repro.classfile.serializer import dump_class

    config = InstrumentationConfig()
    archive = _instrumented_runtime(config)
    cf, wrapper = _find_wrapper(archive, config)
    # strip the bracketing entirely: no J2N_End after the native call
    wrapper.exception_table = []
    for pc, ins in enumerate(wrapper.code):
        if ins.op is Op.INVOKESTATIC:
            ref = cf.constant_pool.get_typed(ins.operand, CpMethodRef)
            if ref.method_name == config.end_method:
                del wrapper.code[pc]
                break
    corrupted = ClassArchive()
    corrupted.put_bytes(cf.name, dump_class(cf))
    path = tmp_path / "corrupted.bin"
    corrupted.save(str(path))

    code = main(["analyze", "--no-runtime", "--archive", str(path),
                 "--check-instrumentation", "--format", "json"])
    assert code == 1
    out = capsys.readouterr().out
    assert "missing-end" in out or "missing-handler" in out


def test_cli_analyze_call_graph_export(tmp_path):
    import json

    from repro.cli import main

    out = tmp_path / "cg.json"
    assert main(["analyze", "--workload", "db",
                 "--call-graph", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["methods"] and doc["call_sites"]
    assert any(site["op"].startswith("invoke")
               for site in doc["call_sites"])


def test_cli_table2_verify_flag_accepted():
    from repro.cli import build_parser

    args = build_parser().parse_args(["table2", "--verify", "typed"])
    assert args.verify == "typed"
    args = build_parser().parse_args(["profile", "db", "--verify",
                                      "off"])
    assert args.verify == "off"
