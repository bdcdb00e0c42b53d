"""Harness: runner, Table I/II builders, report rendering."""

import signal

import pytest

from repro import units
from repro.errors import HarnessError
from repro.harness.config import AgentSpec, RunConfig
from repro.harness.overhead import build_table1
from repro.harness.report import render_table1, render_table2
from repro.harness.runner import execute
from repro.harness.statistics import build_table2
from repro.workloads.base import MetricKind

from test_agents import MixedWorkload


class ThroughputMixedWorkload(MixedWorkload):
    """MixedWorkload reported as a throughput benchmark."""

    name = "mixed-tp"
    metric = MetricKind.THROUGHPUT

    def operations(self, vm) -> int:
        return self.iterations


@pytest.fixture(scope="module")
def table1():
    return build_table1([MixedWorkload(),
                         ThroughputMixedWorkload()])


@pytest.fixture(scope="module")
def table2():
    return build_table2([MixedWorkload()])


class TestRunner:
    def test_invalid_runs_rejected(self):
        with pytest.raises(HarnessError):
            execute(MixedWorkload(), RunConfig(runs=0))

    def test_median_of_deterministic_runs(self):
        single = execute(MixedWorkload(), RunConfig(runs=1))
        tripled = execute(MixedWorkload(), RunConfig(runs=3))
        assert single.cycles == tripled.cycles

    def test_failed_validation_raises(self):
        from repro.workloads.base import (
            Workload,
            WorkloadResultCheck,
        )

        class Broken(MixedWorkload):
            name = "broken"

            def validate(self, vm):
                return WorkloadResultCheck(False, "intentional")

        with pytest.raises(HarnessError, match="intentional"):
            execute(Broken(), RunConfig())


class TestTable1:
    def test_row_per_time_workload_plus_geomean(self, table1):
        assert [row.benchmark for row in table1.time_rows] == \
            ["mixed"]
        assert table1.geomean_row is not None
        assert table1.geomean_row.benchmark == "geom. mean"

    def test_throughput_rows_separate(self, table1):
        assert [row.benchmark for row in table1.throughput_rows] == \
            ["mixed-tp"]

    def test_time_overhead_formula(self, table1):
        row = table1.time_rows[0]
        expected = units.overhead_percent(row.value_original,
                                          row.value_spa)
        assert row.overhead_spa_percent == pytest.approx(expected)

    def test_throughput_overhead_formula(self, table1):
        row = table1.throughput_rows[0]
        expected = units.throughput_overhead_percent(
            row.value_original, row.value_spa)
        assert row.overhead_spa_percent == pytest.approx(expected)

    def test_spa_dwarfs_ipa(self, table1):
        for row in table1.rows:
            assert row.overhead_spa_percent > \
                20 * max(row.overhead_ipa_percent, 0.01)

    def test_raw_results_kept(self, table1):
        assert set(table1.raw["mixed"]) == {"original", "spa", "ipa"}

    def test_rendering(self, table1):
        text = render_table1(table1)
        assert "TABLE I" in text
        assert "overhead SPA" in text
        assert "mixed" in text
        assert "geom. mean" in text
        assert "ops/s" in text


class TestTable2:
    def test_row_shape(self, table2):
        row = table2.rows[0]
        assert row.benchmark == "mixed"
        assert row.jni_calls >= 1
        assert row.native_method_calls > 100
        assert 0 < row.percent_native < 100

    def test_ground_truth_audit_column(self, table2):
        row = table2.rows[0]
        assert row.measurement_error_points == pytest.approx(
            abs(row.percent_native - row.ground_truth_percent_native))
        assert row.measurement_error_points < 2.0

    def test_rendering(self, table2):
        text = render_table2(table2)
        assert "TABLE II" in text
        assert "% native execution" in text
        assert "JNI calls" in text
        assert "error [pts]" in text


class TestRunnerRepetition:
    """The runs > 1 median-selection path and execute_many."""

    def test_median_run_selected_from_odd_runs(self):
        # deterministic simulator: every repetition is identical, so
        # the median must equal any single run, for any runs count
        workload = MixedWorkload()
        baseline = execute(workload, RunConfig(runs=1))
        for runs in (3, 5):
            repeated = execute(workload, RunConfig(runs=runs))
            assert repeated.cycles == baseline.cycles
            assert repeated.instructions == baseline.instructions

    def test_runs_validation_catches_all_repetitions(self):
        calls = []

        class FlakyObserved(MixedWorkload):
            name = "flaky-observed"

            def validate(self, vm):
                calls.append(1)
                return super().validate(vm)

        execute(FlakyObserved(), RunConfig(runs=3))
        assert len(calls) == 3  # every repetition is validated

    def test_execute_many_matches_individual_executes(self):
        from repro.harness.runner import execute_many

        workload = MixedWorkload()
        configs = [RunConfig(agent=AgentSpec.none()),
                   RunConfig(agent=AgentSpec.ipa())]
        batched = execute_many(workload, configs)
        assert [r.agent_label for r in batched] == ["original", "ipa"]
        individual = [execute(workload, c) for c in configs]
        assert [r.cycles for r in batched] == \
            [r.cycles for r in individual]

    def test_execute_many_empty(self):
        from repro.harness.runner import execute_many

        assert execute_many(MixedWorkload(), []) == []


class TestParallelCells:
    """--jobs fan-out must be invisible in the results."""

    def test_registry_workloads_are_describable(self):
        from repro.harness.parallel import describable
        from repro.workloads import get_workload

        assert describable(get_workload("jess"))
        assert not describable(MixedWorkload())

    def test_parallel_matches_serial(self):
        from repro.harness.parallel import CellSpec, run_cells

        cells = [CellSpec("jess", agent_name="none"),
                 CellSpec("jess", agent_name="ipa"),
                 CellSpec("jess", agent_name="spa")]
        serial = run_cells(cells, jobs=1)
        fanned = run_cells(cells, jobs=3)
        assert [r.agent_label for r in fanned] == \
            ["original", "ipa", "spa"]
        assert [r.cycles for r in fanned] == \
            [r.cycles for r in serial]
        assert [r.instructions for r in fanned] == \
            [r.instructions for r in serial]

    def test_unknown_agent_rejected(self):
        from repro.harness.parallel import CellSpec, run_cell

        with pytest.raises(HarnessError, match="unknown agent"):
            run_cell(CellSpec("jess", agent_name="bogus"))

    def test_invalid_jobs_rejected(self):
        from repro.harness.parallel import run_cells

        with pytest.raises(HarnessError):
            run_cells([], jobs=0)

    def test_workers_restore_default_sigterm(self, monkeypatch):
        # the CLI routes SIGTERM to KeyboardInterrupt; forked workers
        # must not inherit that, or Pool shutdown makes them raise
        import repro.harness.parallel as parallel
        from repro.cli import _sigterm_to_interrupt

        monkeypatch.setattr(parallel, "run_cell", _sigterm_disposition)
        previous = signal.signal(signal.SIGTERM, _sigterm_to_interrupt)
        try:
            seen = parallel.run_cells(
                [parallel.CellSpec("jess") for _ in range(4)], jobs=2)
        finally:
            signal.signal(signal.SIGTERM, previous)
        assert seen == ["default"] * 4

    def test_table1_falls_back_to_serial_for_adhoc_workloads(self):
        # MixedWorkload is not registry-backed, so jobs > 1 must fall
        # back to in-process execution and still produce the table
        table = build_table1([MixedWorkload()], jobs=4)
        assert [row.benchmark for row in table.time_rows] == ["mixed"]


def _sigterm_disposition(cell):
    """Stands in for ``run_cell`` in a worker: its SIGTERM handler."""
    handler = signal.getsignal(signal.SIGTERM)
    return "default" if handler is signal.SIG_DFL else repr(handler)
