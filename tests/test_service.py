"""Service mode: warm-VM pool, admission control, loadgen, serve.

The load-bearing guarantees pinned here:

* a warm request skips class loading, verification, and template
  translation entirely (the counters are the witness) yet computes a
  console checksum identical to a cold run's — warmth changes *when*
  start-up work happens, never *what* the workload computes;
* per-request isolation, for every registered workload: repeated
  warm requests agree on every ``RunState`` field, block exactly as a
  cold run does, and change nothing the VM keeps outside ``RunState``;
* admission control rejects with a structured 429-style error, a
  crashed worker is replaced and the next request succeeds, and a
  timed-out request retires its worker;
* the open-loop schedule and the outcome digest are pure functions of
  the seed — repeats agree;
* ``repro serve`` answers every malformed line on a live socket with a
  structured 400 and keeps the connection serving;
* the Table I/II goldens stay byte-identical with the service
  machinery imported *and exercised* in-process.
"""

import asyncio
import copy
import dataclasses
import json
import logging
from collections import deque
from pathlib import Path

import pytest

from repro.cli import main
from repro.errors import AdmissionError, ServiceError
from repro.jvm.machine import RunState
from repro.jvm.threads import ThreadManager
from repro.jvm.values import JArray, JObject
from repro.observability.metrics import MetricsRegistry
from repro.service import (
    RequestOutcome,
    ServiceConfig,
    VMPool,
    WarmVM,
    WorkloadRequest,
    run_cold,
)
from repro.service.loadgen import (
    LoadgenConfig,
    build_schedule,
    outcome_digest,
    run_loadgen,
)
from repro.service.server import (
    MAX_LINE_BYTES,
    MAX_SCALE,
    ServeConfig,
    _serve_async,
)
from repro.service.snapshot import restore_statics, snapshot_statics
from repro.service.warm import MAX_PRIMING_ROUNDS, _build_vm
from repro.workloads import get_workload, workload_names

RESULTS = Path(__file__).resolve().parent.parent / "results"


@pytest.fixture(scope="module")
def warm_db():
    """One pre-warmed db VM shared by the module (warm-up is the
    expensive part; requests are cheap)."""
    return WarmVM("db").warmup()


@pytest.fixture(scope="module")
def cold_db():
    return run_cold("db")


@pytest.fixture(scope="module", params=workload_names())
def warm_any(request):
    """A primed warm VM for each registered workload, in turn."""
    return WarmVM(request.param).warmup()


@pytest.fixture(scope="module")
def cold_any(warm_any):
    """A finished cold run of ``warm_any``'s workload, the reference
    its warm requests are held to."""
    workload = get_workload(warm_any.name)
    vm = _build_vm(workload, "template", "structural")
    vm.launch(workload.main_class)
    return vm


#: Workloads whose hot methods must run as templates on a warm VM (a
#: warm VM built without the template tier would still pass the
#: per-request checks, since both tiers charge the same cycles).
TEMPLATE_WORKLOADS = ("compress", "db", "jess")


def _run_state_view(vm) -> dict:
    """Every ``RunState`` field by value (each thread by its counters),
    plus the counts derived from per-method and per-event counts."""
    view = {}
    for field in dataclasses.fields(RunState):
        value = getattr(vm, field.name)
        if isinstance(value, ThreadManager):
            value = [(t.name, t.cycles_total, dict(t.cycles_by_tag),
                      t.blocked_total, dict(t.blocked_by_device))
                     for t in value.all_threads]
        view[field.name] = copy.deepcopy(value)
    view["method_invocations"] = vm.method_invocations
    view["events_dispatched"] = vm.jvmti.events_dispatched
    return view


def _blocked_view(vm) -> dict:
    return {"blocked": vm.total_blocked,
            "by_device": vm.threads.total_blocked_by_device(),
            "by_native": dict(vm.blocked_by_native)}


_SCALARS = (int, float, str, bytes, type(None))


def _shallow(value):
    """Scalars and containers of scalars by value, other containers by
    length, any other object by its type."""
    if isinstance(value, _SCALARS):
        return value
    if isinstance(value, dict):
        items = [x for pair in value.items() for x in pair]
    elif isinstance(value, (list, tuple, set, frozenset, deque)):
        items = list(value)
    else:
        return type(value).__name__
    if all(isinstance(x, _SCALARS) for x in items):
        return copy.copy(value)
    return len(value)


def _warm_state_view(warm) -> dict:
    """A shallow view of everything a warm VM keeps across requests:
    the VM minus its ``RunState`` fields, its long-lived parts, the
    ``WarmVM`` itself, and every loaded method's per-method counters."""
    vm = warm._vm
    per_run = {field.name for field in dataclasses.fields(RunState)}
    parts = {"vm": vm, "jit": vm.jit, "code_cache": vm.jit.code_cache,
             "loader": vm.loader, "pcl": vm.pcl, "heap": vm.heap,
             "native_registry": vm.native_registry, "warm": warm}
    view = {name: {key: _shallow(value)
                   for key, value in vars(part).items()
                   if part is not vm or key not in per_run}
            for name, part in parts.items()}
    view["methods"] = [
        (method.qualified_name, method.invocation_count,
         method.backedge_count, method.template_deopt_count,
         method.osr_entry_count)
        for cls in vm.loader.loaded_classes()
        for method in cls.methods.values()]
    return view


def _run_pool(config, scenario):
    """Start a pool, run ``scenario(pool)``, always stop; returns
    ``(scenario result, pool)``."""

    async def go():
        pool = VMPool(config, metrics=MetricsRegistry())
        await pool.start()
        try:
            result = await scenario(pool)
        finally:
            await pool.stop()
        return result, pool

    return asyncio.run(go())


class TestWarmVM:
    def test_warmup_settles(self, warm_db):
        assert warm_db.settled
        assert 1 <= warm_db.priming_rounds <= MAX_PRIMING_ROUNDS

    def test_warm_requests_skip_startup_work(self, warm_db):
        outcome = warm_db.run()
        assert outcome["ok"]
        assert outcome["warm"]
        assert outcome["classes_loaded"] == 0
        assert outcome["methods_verified"] == 0
        assert outcome["templates_translated"] == 0
        assert outcome["methods_compiled"] == 0

    def test_cold_request_pays_startup_work(self, cold_db):
        assert cold_db["ok"]
        assert not cold_db["warm"]
        assert cold_db["classes_loaded"] > 0
        assert cold_db["methods_verified"] > 0

    def test_warm_requests_are_cycle_identical(self, warm_db):
        outcomes = [warm_db.run() for _ in range(3)]
        assert len({o["cycles"] for o in outcomes}) == 1
        assert len({o["checksum"] for o in outcomes}) == 1

    def test_warm_checksum_matches_cold(self, warm_db, cold_db):
        """Warmth must not change what the workload computes."""
        assert warm_db.run()["checksum"] == cold_db["checksum"]

    def test_warm_run_is_cheaper_than_cold(self, warm_db, cold_db):
        assert warm_db.run()["cycles"] < cold_db["cycles"]

    def test_warm_requests_restart_jit_counters(self, warm_any,
                                                 cold_any):
        """Every per-run counter and container restarts with every
        request instead of adding up across them (the JIT's template
        counters, like the device clocks before them, once did): three
        successive warm requests agree on every ``RunState`` field and
        on the two derived counts.  Warm requests enter templates
        exactly when a cold run translates any."""
        views = []
        for _ in range(3):
            assert warm_any.run()["ok"]
            views.append(_run_state_view(warm_any._vm))
        assert views[0]["instructions_retired"] > 0
        if warm_any.name in TEMPLATE_WORKLOADS:
            assert views[0]["template_entries"] > 0
        assert ((views[0]["template_entries"] > 0)
                == (cold_any.jit.templates_translated > 0))
        assert views[1] == views[0] and views[2] == views[0]

    def test_warm_requests_match_cold_blocked_time(self, warm_any,
                                                   cold_any):
        """Device clocks and blocked-time attribution restart on every
        request: a warm run blocks exactly as a cold run does, per
        device and per native.  (Wall and device clocks also count CPU
        cycles, which warm requests save on class loading.)"""
        expected = _blocked_view(cold_any)
        if warm_any.name.startswith("io-"):
            assert expected["blocked"] > 0
        for _ in range(2):
            assert warm_any.run()["ok"]
            assert _blocked_view(warm_any._vm) == expected

    def test_nothing_outside_run_state_changes_between_requests(
            self, warm_any):
        """Per-run state must be declared in ``RunState``: after
        priming, two consecutive requests leave everything else the
        same."""
        assert warm_any.run()["ok"]
        before = _warm_state_view(warm_any)
        assert warm_any.run()["ok"]
        assert _warm_state_view(warm_any) == before

    def test_unwarmed_vm_refuses_requests(self):
        with pytest.raises(ServiceError, match="never warmed up"):
            WarmVM("db").run()


class TestStaticsSnapshot:
    def _string(self, text):
        return JObject(None, {}, 7, string_value=text)

    def test_aliasing_and_cycles_survive(self):
        shared = JObject(None, {"n": 1}, 1)
        shared.fields["self"] = shared          # cycle
        array = JArray("ref", 0, 2)
        array.data = [shared, shared]           # aliasing

        class Cls:
            name = "App"
            statics = {"a": shared, "b": shared, "arr": array}

        class Loader:
            def loaded_classes(self):
                return [Cls()]

        snap = snapshot_statics(Loader())
        a, b, arr = (snap["App"]["a"], snap["App"]["b"],
                     snap["App"]["arr"])
        assert a is b                           # aliasing preserved
        assert a is not shared                  # but it is a copy
        assert a.fields["self"] is a            # cycle closed
        assert arr.data[0] is a

    def test_interned_strings_keep_identity(self):
        text = self._string("hello")

        class Cls:
            name = "App"
            statics = {"s": text}

        class Loader:
            def loaded_classes(self):
                return [Cls()]

        snap = snapshot_statics(Loader())
        assert snap["App"]["s"] is text         # LDC binds identity

    def test_restore_mutates_dict_in_place(self):
        class Cls:
            name = "App"
            statics = {"x": 1}

        loader_cls = Cls()

        class Loader:
            def loaded_classes(self):
                return [loader_cls]

        loader = Loader()
        snap = snapshot_statics(loader)
        original_dict = loader_cls.statics
        loader_cls.statics["x"] = 99
        loader_cls.statics["junk"] = "leak"
        restore_statics(loader, snap)
        assert loader_cls.statics is original_dict  # same object
        assert loader_cls.statics == {"x": 1}


class TestPool:
    def test_warm_requests_through_pool(self):
        config = ServiceConfig(workers=1)

        async def scenario(pool):
            return [await pool.submit(WorkloadRequest("db",
                                                      request_id=i))
                    for i in range(2)]

        outcomes, pool = _run_pool(config, scenario)
        assert all(o.status == 200 and o.warm for o in outcomes)
        assert outcomes[0].cycles == outcomes[1].cycles
        assert all(o.classes_loaded == 0 for o in outcomes)
        stats = pool.stats()
        assert stats["service_vms_warmed"] == 1
        assert stats["service_requests_warm"] == 2

    def test_admission_rejects_past_queue_limit(self):
        config = ServiceConfig(workers=1, queue_limit=1, warm=False)

        async def scenario(pool):
            tasks = [asyncio.ensure_future(
                pool.submit(WorkloadRequest("db", request_id=i)))
                for i in range(6)]
            return await asyncio.gather(*tasks,
                                        return_exceptions=True)

        results, pool = _run_pool(config, scenario)
        rejections = [r for r in results
                      if isinstance(r, AdmissionError)]
        served = [r for r in results
                  if isinstance(r, RequestOutcome)]
        assert rejections and served
        assert all(exc.status == 429 for exc in rejections)
        assert all(exc.queue_limit == 1 and exc.queue_depth >= 1
                   for exc in rejections)
        stats = pool.stats()
        assert stats["service_requests_rejected"] == len(rejections)
        assert stats["service_requests_admitted"] == len(served)

    def test_crashed_worker_is_replaced(self):
        config = ServiceConfig(workers=1, warm=False,
                               allow_fault_injection=True)

        async def scenario(pool):
            crashed = await pool.submit(WorkloadRequest(
                "db", request_id=1, fault="host-error"))
            recovered = await pool.submit(WorkloadRequest(
                "db", request_id=2))
            return crashed, recovered

        (crashed, recovered), pool = _run_pool(config, scenario)
        assert crashed.status == 500
        assert "injected fault" in crashed.error
        assert recovered.status == 200
        assert recovered.worker != crashed.worker
        stats = pool.stats()
        assert stats["service_worker_crashes"] == 1
        assert stats["service_workers_replaced"] == 1

    def test_timeout_returns_504_and_retires_worker(self):
        config = ServiceConfig(workers=1, warm=False,
                               timeout_seconds=0.001)

        async def scenario(pool):
            return await pool.submit(WorkloadRequest("db",
                                                     request_id=9))

        outcome, pool = _run_pool(config, scenario)
        assert outcome.status == 504
        assert "timed out" in outcome.error
        stats = pool.stats()
        assert stats["service_requests_timeout"] == 1
        assert stats["service_workers_replaced"] == 1

    def test_unknown_workload_is_a_400(self):
        async def scenario(pool):
            return await pool.submit(WorkloadRequest("nope"))

        outcome, _ = _run_pool(ServiceConfig(workers=1, warm=False),
                               scenario)
        assert outcome.status == 400
        assert "unknown workload" in outcome.error
        assert "compress" in outcome.error   # valid names listed


class TestServeSocket:
    """Drive ``repro serve``'s handler over a live unix socket."""

    @staticmethod
    def _exchange(socket_path, script):
        """Serve on ``socket_path``; ``script(reader, writer)`` talks to
        it on one connection; the server is shut down afterwards."""
        config = ServeConfig(socket_path=socket_path,
                             service=ServiceConfig(workers=1, warm=False))

        async def go():
            state = {}
            server = asyncio.ensure_future(
                _serve_async(config, MetricsRegistry(), state))
            while "listening" not in state:
                assert not server.done(), server.exception()
                await asyncio.sleep(0.01)
            reader, writer = await asyncio.open_unix_connection(
                socket_path)
            try:
                result = await script(reader, writer)
                writer.write(b'{"op": "shutdown"}\n')
                await writer.drain()
                await reader.readline()
            finally:
                writer.close()
            await server
            return result

        return asyncio.run(asyncio.wait_for(go(), timeout=60))

    @staticmethod
    async def _ask(reader, writer, *chunks):
        for chunk in chunks:
            writer.write(chunk)
            await writer.drain()
            await asyncio.sleep(0.01)  # let the server see a partial line
        return json.loads(await reader.readline())

    def test_malformed_lines_get_400_and_the_connection_survives(
            self, tmp_path, caplog):
        long_value = b"x" * (MAX_LINE_BYTES + 6 * 1024)  # a ~70 KB line
        bad = [
            ("scale", [b'{"workload": "db", "scale": "x"}\n']),
            ("id", [b'{"workload": "db", "id": null}\n']),
            ("scale", [b'{"workload": "db", "scale": [1]}\n']),
            ("bad request", [b"not json\n"]),
            ("bad request", [b"[1, 2]\n"]),
            ("longer than", [b'{"id": "' + long_value + b'"}\n']),
            # the same, its newline arriving after the limit was hit
            ("longer than", [b'{"id": "' + long_value, b'"}\n']),
        ]

        async def script(reader, writer):
            replies = []
            for _, chunks in bad:
                replies.append(await self._ask(reader, writer, *chunks))
            stats = await self._ask(reader, writer, b'{"op": "stats"}\n')
            return replies, stats

        replies, stats = self._exchange(str(tmp_path / "s.sock"), script)
        assert [r["status"] for r in replies] == [400] * len(bad)
        for (needle, _), reply in zip(bad, replies):
            assert reply["ok"] is False
            assert needle in reply["error"], reply
        assert stats["status"] == 200 and stats["op"] == "stats"
        assert stats["stats"]["workers"] == 1
        # nothing escaped the client handler
        assert not [r for r in caplog.records
                    if r.name == "asyncio" and r.levelno >= logging.ERROR]

    def test_scale_above_the_limit_gets_400_before_the_pool(
            self, tmp_path):
        too_big = json.dumps({"workload": "db", "scale": MAX_SCALE + 1})

        async def script(reader, writer):
            reply = await self._ask(reader, writer,
                                    too_big.encode() + b"\n")
            stats = await self._ask(reader, writer, b'{"op": "stats"}\n')
            return reply, stats

        reply, stats = self._exchange(str(tmp_path / "s.sock"), script)
        assert reply["status"] == 400 and reply["ok"] is False
        assert "'scale'" in reply["error"]
        assert str(MAX_SCALE) in reply["error"]
        # refused up front: the pool never saw the request, and the
        # connection kept serving
        assert stats["status"] == 200
        assert "service_requests_admitted" not in stats["stats"], stats


class TestLoadgen:
    def test_schedule_is_a_pure_function_of_the_seed(self):
        config = LoadgenConfig(workloads=["db", "jess"], rps=4.0,
                               duration=2.0, seed=42)
        first = build_schedule(config)
        second = build_schedule(config)
        assert first == second
        assert len(first) == 8
        assert [e["at"] for e in first] == sorted(
            e["at"] for e in first)
        assert {e["workload"] for e in first} <= {"db", "jess"}

    def test_closed_loop_has_no_schedule(self):
        with pytest.raises(ServiceError, match="closed-loop"):
            build_schedule(LoadgenConfig(rps=None))

    def test_seeded_runs_reproduce_the_outcome_digest(self):
        config = LoadgenConfig(workloads=["db"], rps=6.0,
                               duration=1.0, seed=42, workers=2,
                               warm=False)
        first = run_loadgen(config)
        second = run_loadgen(config)
        assert first["outcome_digest"] == second["outcome_digest"]
        assert first["requests"]["issued"] == 6
        assert first["requests"]["completed"] == 6
        assert not first["interrupted"]
        assert first["latency_ms"]["p50"] <= first["latency_ms"]["p95"]
        assert first["mode"] == "open"

    def test_digest_covers_simulated_outcomes_only(self):
        rows = [{"id": 1, "workload": "db", "cycles": 10,
                 "checksum": "aa", "status": 200,
                 "latency_ms": 1.0},
                {"id": 0, "workload": "db", "cycles": 10,
                 "checksum": "aa", "status": 200,
                 "latency_ms": 99.0}]
        reordered = list(reversed(rows))
        slower = [dict(row, latency_ms=row["latency_ms"] * 7)
                  for row in rows]
        assert outcome_digest(rows) == outcome_digest(reordered)
        assert outcome_digest(rows) == outcome_digest(slower)


class TestGoldenParityWithService:
    """The service subsystem must not perturb batch measurements —
    even after warm VMs ran in this very process."""

    def test_tables_match_goldens_after_service_use(self, warm_db,
                                                    capsys):
        assert warm_db.run()["ok"]       # service machinery exercised
        assert main(["table1"]) == 0
        table1 = capsys.readouterr().out
        assert table1 == (RESULTS / "table1.txt").read_text()
        assert main(["table2"]) == 0
        table2 = capsys.readouterr().out
        assert table2 == (RESULTS / "table2.txt").read_text()


class TestLoadgenReport:
    def _manifest(self, **loadgen_extras):
        doc = {
            "mode": "open", "workloads": ["db"], "seed": 42,
            "offered_rps": 10.0, "achieved_rps": 9.5,
            "requests": {"issued": 20, "completed": 19,
                         "rejected": 1, "timeout": 0, "failed": 0},
            "latency_ms": {"count": 19, "mean": 5.0, "p50": 4.0,
                           "p95": 9.0, "p99": 9.9, "max": 10.0},
            "latency_histogram": {
                "bounds_ms": [0.5, 1, 2, 4, 8, 16],
                "counts": [0, 0, 3, 6, 8, 2, 0]},
            "timeline": [
                {"second": 0, "offered": 10, "completed": 9},
                {"second": 1, "offered": 10, "completed": 10}],
            "outcome_digest": "abc123", "interrupted": False,
        }
        doc.update(loadgen_extras)
        return {"run_id": "r1", "command": "loadgen",
                "provenance": {}, "config": {},
                "outcome": {"loadgen": doc}}

    def test_report_renders_loadgen_panels(self):
        from repro.observability.report import render_report

        page = render_report(self._manifest())
        assert "Load generation" in page
        assert "request latency [ms]" in page
        assert "throughput over time" in page
        assert "offered rps" in page
        assert "p95 ms" in page
        assert "cold-start" not in page

    def test_report_renders_cold_baseline_table(self):
        page_doc = self._manifest(cold_baseline={
            "latency_ms": {"count": 19, "mean": 50.0, "p50": 40.0,
                           "p95": 90.0, "p99": 99.0, "max": 100.0},
            "achieved_rps": 4.0,
            "requests": {"issued": 20, "completed": 19},
            "outcome_digest": "def456"})
        from repro.observability.report import render_report

        page = render_report(page_doc)
        assert "cold-start baseline" in page
        assert "achieved rps" in page

    def test_non_loadgen_manifest_has_no_loadgen_section(self):
        from repro.observability.report import render_report

        page = render_report({"run_id": "r2", "command": "profile",
                              "provenance": {}, "config": {},
                              "outcome": {}})
        assert "Load generation" not in page


class TestServiceCLI:
    def test_loadgen_records_manifest(self, tmp_path, capsys):
        ledger = tmp_path / "ledger"
        assert main(["loadgen", "--rps", "4", "--duration", "0.5",
                     "--seed", "1", "--workloads", "db",
                     "--workers", "1",
                     "--ledger-dir", str(ledger)]) == 0
        out = capsys.readouterr().out
        assert "digest:" in out
        manifests = list(ledger.glob("*.json"))
        assert len(manifests) == 1
        manifest = json.loads(manifests[0].read_text())
        assert manifest["command"] == "loadgen"
        assert manifest["config"]["rps"] == 4.0
        assert manifest["config"]["cores"] == 1
        assert manifest["config"]["tier"] == "template"
        doc = manifest["outcome"]["loadgen"]
        assert doc["outcome_digest"]
        assert doc["requests"]["issued"] == 2

    @pytest.mark.parametrize("argv", [
        ["loadgen", "--rps", "0", "--duration", "1"],
        ["loadgen", "--rps", "-3", "--duration", "1"],
        ["loadgen", "--rps", "5", "--duration", "0"],
        ["loadgen", "--rps", "5", "--duration", "-1"],
    ])
    def test_loadgen_rejects_nonpositive_rate_and_duration(
            self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "positive" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["table1", "--workloads", "bogus"],
        ["table2", "--workloads", "db", "bogus"],
        ["loadgen", "--rps", "1", "--duration", "1",
         "--workloads", "bogus"],
        ["serve", "--port", "1", "--preheat", "bogus"],
    ])
    def test_unknown_workloads_list_valid_families(self, argv,
                                                   capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "bogus" in err
        assert "valid" in err
        assert "compress" in err

    def test_serve_needs_an_endpoint(self, capsys):
        assert main(["serve"]) == 2
        assert "--socket" in capsys.readouterr().err

    def test_serve_refuses_busy_socket_path(self, tmp_path, capsys):
        busy = tmp_path / "repro.sock"
        busy.touch()
        assert main(["serve", "--socket", str(busy)]) == 2
        err = capsys.readouterr().err
        assert "already exists" in err

    def test_serve_refuses_busy_port(self, capsys):
        import socket

        with socket.socket() as holder:
            holder.bind(("127.0.0.1", 0))
            holder.listen(1)
            port = holder.getsockname()[1]
            assert main(["serve", "--port", str(port)]) == 2
        err = capsys.readouterr().err
        assert "already in use" in err

    def test_interrupted_loadgen_writes_partial_manifest(
            self, tmp_path, monkeypatch):
        async def interrupted_drive(pool, config, records):
            raise KeyboardInterrupt

        monkeypatch.setattr("repro.service.loadgen._drive_open_loop",
                            interrupted_drive)
        ledger = tmp_path / "ledger"
        status = main(["loadgen", "--rps", "4", "--duration", "0.5",
                       "--workers", "1",
                       "--ledger-dir", str(ledger)])
        assert status == 130
        manifests = list(ledger.glob("*.json"))
        assert len(manifests) == 1
        manifest = json.loads(manifests[0].read_text())
        assert manifest["interrupted"] is True
        assert manifest["outcome"]["loadgen"]["interrupted"] is True
