"""Observability subsystem: tracer, metrics, Chrome trace export,
flamegraph folding, and the zero-perturbation guarantee.

The hard rule under test: simulated cycle accounting is bit-identical
with tracing enabled, disabled, or absent.  Hooks *observe* the
per-thread cycle counters; they never charge them.
"""

import json

import pytest

from repro.cli import main
from repro.harness.config import AgentSpec, RunConfig
from repro.harness.runner import execute
from repro.observability import (
    NULL_SINK,
    NULL_TRACER,
    MetricsRegistry,
    ObservabilityConfig,
    chrome_trace_doc,
    read_metrics_jsonl,
    summarize_metrics,
)
from repro.observability.metrics import NULL_METRICS
from repro.observability.sink import ObservabilitySink
from repro.observability.tracer import HARNESS_TID, Tracer
from repro.workloads import get_workload


class TestTracer:
    def test_complete_event_recorded(self):
        tracer = Tracer()
        tracer.register_thread(3, "worker")
        tracer.complete("span", "cat", 3, 10, 25, args={"k": 1})
        events = tracer.events_in_order()
        assert len(events) == 1
        ph, name, cat, tid, ts, dur, args, _seq = events[0]
        assert (ph, name, cat, tid, ts, dur) == \
            ("X", "span", "cat", 3, 10, 15)
        assert args == {"k": 1}

    def test_events_sorted_by_timestamp_then_sequence(self):
        tracer = Tracer()
        tracer.instant("b", "cat", 1, 50)
        tracer.instant("a", "cat", 2, 10)
        tracer.instant("c", "cat", 1, 10)
        names = [e[1] for e in tracer.events_in_order()]
        assert names == ["a", "c", "b"]

    def test_begin_end_pair(self):
        tracer = Tracer()
        tracer.begin("nest", "cat", 1, 5)
        tracer.end("nest", "cat", 1, 9)
        phases = [e[0] for e in tracer.events_in_order()]
        assert phases == ["B", "E"]

    def test_harness_tid_is_reserved(self):
        tracer = Tracer()
        assert tracer.thread_names[HARNESS_TID] == "harness"

    def test_null_tracer_is_inert(self):
        NULL_TRACER.register_thread(1, "x")
        NULL_TRACER.complete("a", "b", 1, 0, 1)
        NULL_TRACER.instant("a", "b", 1, 0)
        assert not NULL_TRACER.enabled
        assert NULL_TRACER.event_count == 0


class TestMetrics:
    def test_counter_and_gauge(self):
        reg = MetricsRegistry()
        reg.inc("ops")
        reg.inc("ops", 4)
        reg.set_gauge("depth", 7)
        records = {r["name"]: r for r in reg.as_records({"w": "x"})}
        assert records["ops"]["value"] == 5
        assert records["ops"]["type"] == "counter"
        assert records["depth"]["value"] == 7
        assert records["ops"]["labels"] == {"w": "x"}

    def test_histogram_observes(self):
        reg = MetricsRegistry()
        for v in (3, 17, 900):
            reg.observe("lat", v)
        record = {r["name"]: r for r in reg.as_records({})}["lat"]
        assert record["type"] == "histogram"
        assert record["count"] == 3
        assert record["sum"] == 920
        assert record["min"] == 3
        assert record["max"] == 900

    def test_null_metrics_is_inert(self):
        NULL_METRICS.inc("x")
        NULL_METRICS.observe("y", 3)
        assert not NULL_METRICS.enabled
        assert NULL_METRICS.as_records({}) == []

    def test_summarize_merges_cells(self):
        a = MetricsRegistry()
        a.inc("ops", 2)
        b = MetricsRegistry()
        b.inc("ops", 5)
        records = a.as_records({"cell": "a"}) + \
            b.as_records({"cell": "b"})
        summary = summarize_metrics(records)
        by_name = {row["name"]: row for row in summary}
        assert by_name["ops"]["total"] == 7
        assert by_name["ops"]["cells"] == 2


class TestMetricsPercentiles:
    def test_histogram_summary_estimates_percentiles(self):
        reg = MetricsRegistry()
        for v in range(1, 101):
            reg.observe("lat", v)
        row = summarize_metrics(reg.as_records({}))[0]
        # values 1..100 land in power-of-two buckets; the estimates
        # only need to be in the right region, bounded by min/max
        assert 1 <= row["p50"] <= 100
        assert row["p50"] <= row["p95"] <= row["p99"] <= 100
        assert "p50" in row and "p95" in row and "p99" in row

    def test_percentiles_merge_across_cells(self):
        a = MetricsRegistry()
        a.observe("lat", 10)
        b = MetricsRegistry()
        b.observe("lat", 100_000)
        row = summarize_metrics(a.as_records({}) + b.as_records({}))[0]
        assert row["count"] == 2
        assert 10 <= row["p50"] <= 100_000
        assert row["p99"] <= 100_000  # clamped to the recorded max

    def test_percentiles_clamped_to_recorded_range(self):
        from repro.observability.metrics import estimate_percentile
        # a single bucket holding all mass, with a tight real range
        assert estimate_percentile((10, 20, 30), [0, 10, 0, 0], 50,
                                   lo=12, hi=19) == pytest.approx(15.5)
        assert estimate_percentile((10,), [0, 0], 50) is None

    def test_single_observation(self):
        reg = MetricsRegistry()
        reg.observe("one", 42)
        row = summarize_metrics(reg.as_records({}))[0]
        assert row["p50"] == row["p95"] == row["p99"] == 42

    def test_formatted_summary_shows_percentiles(self):
        from repro.observability.metrics import format_metrics_summary
        reg = MetricsRegistry()
        for v in (5, 50, 500):
            reg.observe("lat", v)
        text = format_metrics_summary(summarize_metrics(
            reg.as_records({})))
        assert "p50~" in text and "p95~" in text and "p99~" in text

    def test_records_without_histogram_shape_still_summarize(self):
        # old-format records (no bounds/bucket_counts) must not crash
        rows = summarize_metrics([
            {"name": "lat", "type": "histogram", "count": 2,
             "sum": 30, "min": 10, "max": 20}])
        assert rows[0]["count"] == 2
        assert "p50" not in rows[0]


class TestMetricsJsonlRobustness:
    def _read(self, tmp_path, text):
        from repro.observability.metrics import read_metrics_jsonl
        path = tmp_path / "metrics.jsonl"
        path.write_text(text)
        return read_metrics_jsonl(str(path))

    def test_empty_file(self, tmp_path):
        assert self._read(tmp_path, "") == []

    def test_blank_lines_skipped(self, tmp_path):
        records = self._read(
            tmp_path, '\n{"name": "a", "type": "counter"}\n\n\n')
        assert len(records) == 1

    def test_truncated_final_line_dropped_silently(self, tmp_path,
                                                   capsys):
        records = self._read(
            tmp_path,
            '{"name": "a", "type": "counter", "value": 1}\n'
            '{"name": "b", "type": "coun')
        assert len(records) == 1
        assert records[0]["name"] == "a"
        assert capsys.readouterr().err == ""

    def test_undecodable_midfile_line_warns_and_skips(self, tmp_path,
                                                      capsys):
        records = self._read(
            tmp_path,
            '{"name": "a", "type": "counter", "value": 1}\n'
            'not json at all\n'
            '{"name": "b", "type": "counter", "value": 2}\n')
        assert [r["name"] for r in records] == ["a", "b"]
        assert "undecodable" in capsys.readouterr().err

    def test_non_dict_lines_ignored(self, tmp_path):
        assert self._read(tmp_path, '[1, 2]\n"text"\n3\n') == []

    def test_damaged_records_skipped_by_summarize(self):
        rows = summarize_metrics([
            {"type": "counter", "value": 1},       # no name
            {"name": "ok", "type": "counter", "value": 2},
            {"name": "bare", "type": "counter"},   # no value
        ])
        by_name = {row["name"]: row for row in rows}
        assert by_name["ok"]["total"] == 2
        assert by_name["bare"]["total"] == 0


class TestFlamegraphEscaping:
    class _Node:
        def __init__(self, inclusive, native=False):
            self.inclusive_cycles = inclusive
            self.is_native = native
            self.children = {}

        def walk(self, chain=("<thread>",)):
            yield chain, self
            for name, child in self.children.items():
                yield from child.walk(chain + (name,))

    def test_structural_characters_sanitized(self):
        from repro.observability import folded_lines
        root = self._Node(100)
        root.children["evil;frame\nname"] = self._Node(60,
                                                      native=True)
        root.children["plain.method"] = self._Node(40)
        lines = folded_lines([("thread;one\r", root)])
        assert lines == [
            "thread:one_;evil:frame_name_[k] 60",
            "thread:one_;plain.method 40",
        ]
        # the folded format stays parseable: frame;frame weight
        for line in lines:
            stack, weight = line.rsplit(" ", 1)
            assert int(weight) > 0
            assert "\n" not in stack


class TestSink:
    def test_null_sink_disabled(self):
        assert not NULL_SINK.enabled
        assert NULL_SINK.tracer is NULL_TRACER

    def test_config_selects_components(self):
        sink = ObservabilitySink(ObservabilityConfig(trace=True,
                                                     metrics=False))
        assert sink.tracer.enabled
        assert not sink.metrics.enabled

    def test_capture_shape(self):
        sink = ObservabilitySink(ObservabilityConfig(trace=True,
                                                     metrics=True))
        sink.tracer.register_thread(1, "main")
        sink.tracer.complete("s", "c", 1, 0, 4)
        sink.metrics.inc("n")
        doc = sink.capture(labels={"workload": "w"}, clock_hz=1000)
        assert doc["labels"] == {"workload": "w"}
        assert doc["clock_hz"] == 1000
        assert doc["thread_names"]["1"] == "main"
        assert len(doc["events"]) == 1
        assert doc["metrics"][0]["name"] == "n"


class TestChromeTraceExport:
    """`repro trace compress --trace-out t.json` emits valid Chrome
    trace-event JSON (the ISSUE's acceptance check)."""

    @pytest.fixture(scope="class")
    def trace_doc(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("trace") / "t.json"
        assert main(["trace", "compress", "--trace-out",
                     str(out)]) == 0
        return json.loads(out.read_text())

    def test_toplevel_schema(self, trace_doc):
        assert "traceEvents" in trace_doc
        assert trace_doc["metadata"]["time_unit"] == "simulated-cycles"
        assert trace_doc["displayTimeUnit"] == "ms"

    def test_event_schema(self, trace_doc):
        events = trace_doc["traceEvents"]
        assert events
        for event in events:
            for key in ("ph", "name", "pid", "tid"):
                assert key in event, event
            if event["ph"] == "X":
                assert "ts" in event
                assert event["dur"] >= 0
            elif event["ph"] == "i":
                assert event["s"] == "t"

    def test_metadata_names_process_and_threads(self, trace_doc):
        meta = [e for e in trace_doc["traceEvents"]
                if e["ph"] == "M"]
        names = {e["name"] for e in meta}
        assert "process_name" in names
        assert "thread_name" in names

    def test_phase_spans_present(self, trace_doc):
        cats = {e.get("cat") for e in trace_doc["traceEvents"]}
        assert "classload" in cats
        assert "harness" in cats
        assert "thread" in cats

    def test_timestamps_are_simulated_cycles(self, trace_doc):
        launch = [e for e in trace_doc["traceEvents"]
                  if e["name"].startswith("launch:")]
        assert launch and all(e["ts"] >= 0 for e in launch)


class TestFlamegraph:
    def test_profile_writes_folded_stacks(self, tmp_path, capsys):
        out = tmp_path / "out.folded"
        assert main(["profile", "jess", "--agent", "callchain",
                     "--flamegraph", str(out)]) == 0
        assert "folded stacks" in capsys.readouterr().out
        lines = out.read_text().splitlines()
        assert lines
        for line in lines:
            stack, weight = line.rsplit(" ", 1)
            assert int(weight) > 0
            frames = stack.split(";")
            assert len(frames) >= 2          # thread;frame...
        # native frames carry the perf-style kernel-ish suffix
        assert any("_[k]" in line for line in lines)

    def test_flamegraph_requires_callchain(self, tmp_path, capsys):
        out = tmp_path / "out.folded"
        assert main(["profile", "jess", "--agent", "ipa",
                     "--flamegraph", str(out)]) == 2
        assert "callchain" in capsys.readouterr().err
        assert not out.exists()


class TestCliErrors:
    def test_unknown_agent_exits_2_with_valid_list(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["profile", "jess", "--agent", "bogus"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "unknown agent 'bogus'" in err
        for name in ("callchain", "ipa", "none", "spa"):
            assert name in err


class TestMetricsCli:
    def test_trace_with_metrics_then_summary(self, tmp_path, capsys):
        trace = tmp_path / "t.json"
        metrics = tmp_path / "m.jsonl"
        assert main(["trace", "jess", "--trace-out", str(trace),
                     "--metrics-out", str(metrics)]) == 0
        capsys.readouterr()
        records = read_metrics_jsonl(str(metrics))
        names = {r["name"] for r in records}
        assert "instructions_retired" in names
        assert "classes_loaded" in names
        assert main(["metrics", str(metrics)]) == 0
        out = capsys.readouterr().out
        assert "instructions_retired" in out

    def test_metrics_empty_exits_1(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["metrics", str(empty)]) == 1


class TestZeroPerturbation:
    """Cycle accounting must be bit-identical with observability on,
    off, or absent."""

    @pytest.mark.parametrize("agent", [AgentSpec.none, AgentSpec.spa,
                                       AgentSpec.ipa,
                                       AgentSpec.callchain])
    def test_cycles_identical_with_and_without(self, agent):
        workload = get_workload("jess")
        plain = execute(workload, RunConfig(agent=agent()))
        observed = execute(workload, RunConfig(
            agent=agent(),
            observability=ObservabilityConfig(trace=True,
                                              metrics=True)))
        assert observed.cycles == plain.cycles
        assert observed.instructions == plain.instructions
        assert observed.ground_truth_native_fraction == \
            plain.ground_truth_native_fraction
        assert observed.observability is not None
        assert plain.observability is None

    def test_trace_events_do_not_charge_cycles(self):
        workload = get_workload("db")
        observed = execute(workload, RunConfig(
            agent=AgentSpec.ipa(),
            observability=ObservabilityConfig(trace=True,
                                              metrics=False)))
        doc = chrome_trace_doc([observed.observability])
        assert doc["traceEvents"]
        gauge = {r["name"]: r for r in
                 (observed.observability["metrics"] or [])}
        assert gauge == {}  # metrics off ⇒ no records, trace still on
