"""Concurrency correctness subsystem: static lockset/lock-order
analysis, the dynamic happens-before race sanitizer, and their
cross-check.

Contracts pinned here:

* the static side (`analyze_races`): thread-escape over the CHA graph,
  Eraser-style locksets (`race-warning`), the lock-order graph
  (`deadlock-potential`), and the single-threaded short-circuit;
* the dynamic side (`--sanitize race`): FastTrack-style vector clocks
  confirm the seeded races with *both* stacks and cycle timestamps,
  honor monitor/start/join happens-before edges, and never perturb a
  simulated cycle (tables byte-identical on/off, both tiers, serial
  and fanned);
* the cross-check (`--race-check`): dynamic ⊆ static — every confirmed
  race must carry a static warning;
* the typed verifier's MONITORENTER/MONITOREXIT bracketing rule;
* CLI exit codes: confirmed races fail `table1`/`table2`,
  `analyze --strict` makes warning findings fatal.
"""

from pathlib import Path

import pytest
from helpers import build_app, run_main

from repro.analysis import analyze_archives, static_race_check
from repro.analysis.races import analyze_races  # noqa: F401 (API)
from repro.bytecode.assembler import ClassAssembler
from repro.bytecode.instructions import Instruction
from repro.bytecode.opcodes import Op
from repro.cli import main
from repro.harness.config import AgentSpec, RunConfig
from repro.harness.overhead import build_table1
from repro.harness.report import render_table1
from repro.harness.runner import execute
from repro.jit.policy import JitPolicy
from repro.jvm.machine import VMConfig
from repro.launcher import runtime_archive
from repro.observability import ObservabilityConfig
from repro.workloads import get_workload

RESULTS = Path(__file__).resolve().parent.parent / "results"


def _static(workload_name):
    result = analyze_archives(
        [runtime_archive(), get_workload(workload_name).archive],
        races=True)
    assert result.races is not None
    return result.races


def _run(workload_name, cores=1, sanitize="race", observability=None):
    return execute(get_workload(workload_name), RunConfig(
        agent=AgentSpec.none(),
        vm_config=VMConfig(cores=cores, sanitize=sanitize),
        observability=observability))


# -- static analysis ----------------------------------------------------------


class TestStaticRaces:
    def test_racy_counter_gets_race_warning(self):
        races = _static("racy-counter")
        assert races.multithreaded
        assert ("racy.counter.Counter", "count") in races.racy_fields
        assert races.race_warnings >= 1
        rules = {f.rule for f in races.report.findings}
        assert "race-warning" in rules

    def test_racy_lockorder_gets_warning_and_cycle(self):
        races = _static("racy-lockorder")
        assert ("racy.order.Shared", "value") in races.racy_fields
        # A→B in mode 0, B→A in mode 1: one rotation-canonical cycle
        assert races.deadlock_potentials >= 1
        rules = {f.rule for f in races.report.findings}
        assert "deadlock-potential" in rules

    def test_single_threaded_workload_short_circuits(self):
        # db never instantiates a Thread subclass: trivially race-free,
        # no lockset pass at all
        races = _static("db")
        assert not races.multithreaded
        assert races.race_warnings == 0
        assert races.deadlock_potentials == 0

    def test_reactors_static_covers_its_dynamic_race(self):
        # the field the sanitizer confirms at --cores 1 must be
        # statically predicted, or --race-check could never pass
        races = _static("reactors")
        assert ("conc.reactors.Stage", "inCount") in races.racy_fields

    def test_findings_merge_into_analysis_report(self):
        result = analyze_archives(
            [runtime_archive(), get_workload("racy-counter").archive],
            races=True)
        assert result.report.counts()["warning"] >= 1
        assert result.races.to_json()["race_warnings"] >= 1


# -- dynamic sanitizer --------------------------------------------------------


class TestSanitizer:
    def test_racy_counter_confirms_race_with_two_stacks(self):
        result = _run("racy-counter")
        assert result.races, "the seeded race must be confirmed"
        race = result.races[0]
        assert race["class"] == "racy.counter.Counter"
        assert race["field"] == "count"
        for side in ("prior", "current"):
            access = race[side]
            assert access["stack"], "both stacks must be reported"
            assert access["cycles"] >= 0
            assert access["thread"]
        assert race["prior"]["thread"] != race["current"]["thread"]

    def test_racy_lockorder_confirms_race(self):
        # private lock pairs: no shared lock instance, so no
        # happens-before edge hides the inconsistent-lock update
        result = _run("racy-lockorder")
        assert any(r["class"] == "racy.order.Shared"
                   and r["field"] == "value" for r in result.races)

    @pytest.mark.parametrize("name", ["fj-kmeans", "actors",
                                      "reactors"])
    def test_concurrency_family_clean_at_cores4(self, name):
        # the scheduler token totally orders slices at cores >= 2; the
        # shipped family must confirm zero races
        result = _run(name, cores=4)
        assert result.races == []
        assert not result.thread_deaths

    def test_monitor_edge_suppresses_locked_counter(self):
        # same shape as racy-counter but the RMW happens under one
        # shared monitor: release->acquire joins the clocks, no race
        counter = ClassAssembler("lk.Counter")
        counter.field("count", default=0)
        with counter.method("<init>", "()V") as m:
            m.return_()
        worker = ClassAssembler("lk.Worker",
                                super_name="java.lang.Thread")
        worker.field("shared")
        with worker.method("<init>", "(Llk.Counter;)V") as m:
            m.aload(0).aload(1).putfield("lk.Worker", "shared")
            m.return_()
        with worker.method("run", "()V") as m:
            m.iconst(0).istore(1)
            m.label("loop")
            m.iload(1).ldc(8).if_icmpge("done")
            m.aload(0).getfield("lk.Worker", "shared").monitorenter()
            m.aload(0).getfield("lk.Worker", "shared")
            m.dup().getfield("lk.Counter", "count")
            m.iconst(1).iadd().putfield("lk.Counter", "count")
            m.aload(0).getfield("lk.Worker", "shared").monitorexit()
            m.iinc(1, 1).goto("loop")
            m.label("done")
            m.return_()
        main_c = ClassAssembler("lk.Main")
        with main_c.method("main", "()V", static=True) as m:
            m.new("lk.Counter").dup()
            m.invokespecial("lk.Counter", "<init>", "()V").astore(0)
            for slot in (1, 2):
                m.new("lk.Worker").dup().aload(0)
                m.invokespecial("lk.Worker", "<init>",
                                "(Llk.Counter;)V").astore(slot)
            for slot in (1, 2):
                m.aload(slot).invokevirtual("lk.Worker", "start",
                                            "()V")
            for slot in (1, 2):
                m.aload(slot).invokevirtual("lk.Worker", "join",
                                            "()V")
            m.getstatic("java.lang.System", "out")
            m.aload(0).getfield("lk.Counter", "count")
            m.invokevirtual("java.io.PrintStream", "println", "(I)V")
            m.return_()
        vm = run_main(build_app(counter, worker, main_c), "lk.Main",
                      config=VMConfig(sanitize="race"))
        assert vm.console[-1] == "16"
        assert vm.sanitizer.races == []

    def test_join_edge_orders_final_read(self):
        # racy-counter's *main thread* reads count after joining both
        # workers: that read must never be part of a reported race
        result = _run("racy-counter")
        for race in result.races:
            for side in ("prior", "current"):
                assert race[side]["thread"] != "main"

    def test_sanitizer_metrics_emitted(self):
        result = _run("racy-counter",
                      observability=ObservabilityConfig(metrics=True))
        records = {r["name"]: r for r in result.observability["metrics"]
                   if "name" in r}
        assert records["races_confirmed"]["value"] >= 1
        assert records["shadow_words"]["value"] > 0

    def test_no_sanitizer_metrics_when_off(self):
        result = _run("racy-counter", sanitize="off",
                      observability=ObservabilityConfig(metrics=True))
        names = {r.get("name") for r in result.observability["metrics"]}
        assert "races_confirmed" not in names
        assert "shadow_words" not in names
        assert result.races == []


# -- zero-perturbation: tables byte-identical with the sanitizer on -----------


class TestSanitizerParity:
    @pytest.fixture(scope="class")
    def workloads(self):
        return [get_workload("fj-kmeans")]

    @pytest.fixture(scope="class")
    def plain(self, workloads):
        return render_table1(build_table1(
            workloads, vm_config=VMConfig(cores=2)))

    @pytest.mark.parametrize("tier", [True, False],
                             ids=["template", "interp"])
    def test_sanitized_table_identical_per_tier(self, workloads,
                                                plain, tier):
        sanitized = build_table1(workloads, vm_config=VMConfig(
            cores=2, sanitize="race",
            jit_policy=JitPolicy(template_tier=tier)))
        assert render_table1(sanitized) == plain

    def test_jobs4_sanitized_identical(self, workloads, plain):
        sanitized = build_table1(
            workloads, jobs=4,
            vm_config=VMConfig(cores=2, sanitize="race"))
        assert render_table1(sanitized) == plain

    def test_table1_golden_with_sanitizer(self, capsys):
        # the full Table I pipeline under --sanitize race: the suite is
        # race-free, the bytes must match the golden exactly
        assert main(["table1", "--sanitize", "race"]) == 0
        out = capsys.readouterr().out
        assert out == (RESULTS / "table1.txt").read_text()


# -- cross-check: dynamic ⊆ static --------------------------------------------


class TestRaceCheck:
    def test_confirmed_race_predicted_statically(self):
        dynamic = _run("racy-counter").races
        check = static_race_check(
            [runtime_archive(), get_workload("racy-counter").archive],
            dynamic)
        assert check.ok
        assert len(check.confirmed) == len(dynamic)
        assert "ok" in check.summary()
        assert check.to_json()["violations"] == []

    def test_unpredicted_race_fails(self):
        check = static_race_check(
            [runtime_archive(), get_workload("racy-counter").archive],
            [{"class": "racy.counter.Main", "field": "ghost"}])
        assert not check.ok
        assert len(check.violations) == 1
        assert "FAILED" in check.summary()


# -- typed verifier: monitor bracketing ---------------------------------------


class TestMonitorBracketing:
    def _findings(self, body, descriptor="()V"):
        from repro.analysis import analyze_method_types
        c = ClassAssembler("mb.C")
        with c.method("m", descriptor, static=True) as m:
            body(m)
        cf = c.build()
        return analyze_method_types(cf.methods[0], cf.constant_pool,
                                    cf.name)

    def test_balanced_monitors_clean(self):
        def body(m):
            m.new("java.lang.Object").dup()
            m.invokespecial("java.lang.Object", "<init>", "()V")
            m.astore(0)
            m.aload(0).monitorenter()
            m.aload(0).monitorexit()
            m.return_()
        rules = {f.rule for f in self._findings(body)}
        assert "monitor-bracketing" not in rules

    def test_return_holding_monitor_warns(self):
        def body(m):
            m.new("java.lang.Object").dup()
            m.invokespecial("java.lang.Object", "<init>", "()V")
            m.astore(0)
            m.aload(0).monitorenter()
            m.return_()
        findings = [f for f in self._findings(body)
                    if f.rule == "monitor-bracketing"]
        assert findings
        assert "holding" in findings[0].message

    def test_exit_without_enter_warns(self):
        def body(m):
            m.new("java.lang.Object").dup()
            m.invokespecial("java.lang.Object", "<init>", "()V")
            m.astore(0)
            m.aload(0).monitorexit()
            m.return_()
        findings = [f for f in self._findings(body)
                    if f.rule == "monitor-bracketing"]
        assert findings

    def test_inconsistent_depth_at_join_warns(self):
        def body(m):
            m.new("java.lang.Object").dup()
            m.invokespecial("java.lang.Object", "<init>", "()V")
            m.astore(0)
            m.iload(1).ifeq("skip")
            m.aload(0).monitorenter()
            m.label("skip")
            m.aload(0).monitorexit()
            m.return_()
        findings = [f for f in self._findings(body, "(I)V")
                    if f.rule == "monitor-bracketing"]
        assert findings

    def test_suite_has_no_bracketing_warnings(self):
        # every shipped workload brackets its monitors correctly
        result = analyze_archives(
            [runtime_archive(), get_workload("reactors").archive,
             get_workload("racy-lockorder").archive])
        rules = {f.rule for f in result.report.findings}
        assert "monitor-bracketing" not in rules


# -- CLI exit codes -----------------------------------------------------------


class TestCli:
    def test_racy_fixture_fails_table1_under_sanitizer(self, capsys):
        code = main(["table1", "--workloads", "racy-counter",
                     "--sanitize", "race", "--no-ledger"])
        capsys.readouterr()
        assert code == 1

    def test_racy_lockorder_fails_table1_under_sanitizer(self, capsys):
        code = main(["table1", "--workloads", "racy-lockorder",
                     "--sanitize", "race", "--no-ledger"])
        capsys.readouterr()
        assert code == 1

    def test_racy_fixture_passes_without_sanitizer(self, capsys):
        # deterministic checksum: the defect is invisible unless armed
        code = main(["table1", "--workloads", "racy-counter",
                     "--no-ledger"])
        capsys.readouterr()
        assert code == 0

    def test_race_check_passes_on_clean_workload(self, capsys):
        code = main(["table2", "--workloads", "fj-kmeans",
                     "--race-check", "--no-ledger"])
        capsys.readouterr()
        assert code == 0

    def test_analyze_races_exits_zero(self, capsys):
        code = main(["analyze", "--races", "--workload", "db",
                     "--no-ledger"])
        out = capsys.readouterr().out
        assert code == 0
        assert "race analysis" in out

    def test_analyze_strict_fails_on_warnings(self, capsys):
        # racy-counter carries a seeded race-warning: --strict turns
        # the warning finding into a non-zero exit
        code = main(["analyze", "--races", "--strict",
                     "--workload", "racy-counter", "--no-ledger"])
        capsys.readouterr()
        assert code == 1

    def test_analyze_strict_passes_on_clean_input(self, capsys):
        code = main(["analyze", "--races", "--strict",
                     "--workload", "db", "--no-ledger"])
        capsys.readouterr()
        assert code == 0


# -- malformed input ----------------------------------------------------------


def _bad_goto_app():
    """A multithreaded program whose ``main`` calls ``bad()V``, a
    one-instruction method branching out of range."""
    worker = ClassAssembler("t.Worker", super_name="java.lang.Thread")
    with worker.method("<init>", "()V") as m:
        m.return_()
    main_c = ClassAssembler("t.Main")
    with main_c.method("main", "()V", static=True) as m:
        m.new("t.Worker").dup()
        m.invokespecial("t.Worker", "<init>", "()V")
        m.invokevirtual("t.Worker", "start", "()V")
        m.invokestatic("t.Main", "bad", "()V")
        m.return_()
    m = main_c.method("bad", "()V", static=True)
    m._code.append(Instruction(Op.GOTO, 99))
    m.finish()
    app = build_app(worker)
    app.put_class(main_c.build(verify=False))
    return app


class TestMalformedInput:
    def test_bad_branch_target_is_a_structural_finding(self):
        result = analyze_archives([runtime_archive(), _bad_goto_app()],
                                  typed=True, races=True)
        assert result.races.multithreaded
        assert [(f.rule, f.method, f.pc, f.message)
                for f in result.report.errors] == [
            ("structural", "bad()V", 0, "branch target 99 out of range")]

    def test_cli_analyze_races_exits_one_without_traceback(
            self, tmp_path, capsys):
        path = tmp_path / "bad.rja"
        _bad_goto_app().save(str(path))
        code = main(["analyze", "--races", "--archive", str(path),
                     "--no-ledger"])
        captured = capsys.readouterr()
        assert code == 1
        assert "Traceback" not in captured.err
        assert "t.Main.bad()V @ 0: branch target 99 out of range" in \
            captured.out
