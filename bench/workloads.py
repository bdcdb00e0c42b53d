"""The benchmark's four workloads.

Each runs in its own worker process.  ``setup`` does what a user pays
before the first result (imports, the runtime archive, archive
authoring, pool warm-up); ``run_pass`` runs every program of the
workload once and returns one record per op.  Every op's simulated
outcome is checked against ``bench/reference.json``.

* ``steady-jvm98``: the seven JVM98 programs at scale 8 on fresh VMs.
  Template code and the call/return path take over 95% of host time
  (at scale 4 translation alone took 5%), so it shows hot-path work and
  is the control for cold-layer work.
* ``paper-tables``: exactly what ``repro table1`` and ``repro table2``
  do; every cell is an op.  SPA disables the JIT, so dispatch, JVMTI
  and agent hooks carry a large share; IPA adds instrumentation.
* ``cold-start``: static analysis plus a typed-verified fresh-VM run of
  fourteen small programs, where parse, load, verification, analysis
  and translation take their largest share.
* ``serve-warm``: a one-worker warm pool driven from this process's
  event loop, first closed-loop then open-loop.  Warm requests skip
  load, verify and translate, so they show warm reset and hot
  execution, and are the control for cold-layer gains.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import random
import time
from contextlib import nullcontext
from typing import Dict, List, Optional, Sequence, Tuple

from common import ROOT, HostSpeed, digest

JVM98 = ("compress", "jess", "db", "javac", "mpegaudio", "mtrt", "jack")


class Abort(Exception):
    """A table cannot finish; the failed cell is already recorded."""


def run_outcome(result) -> Dict:
    """The simulated outcome of one harness run (a ``RunResult``)."""
    return {"instructions": result.instructions,
            "cycles": result.cycles,
            "wall_cycles": result.wall_cycles,
            "blocked_cycles": result.blocked_cycles,
            "console": digest(result.console),
            "thread_deaths": len(result.thread_deaths)}


async def open_loop(schedule: Sequence[Tuple[float, object]], issue,
                    clock=time.perf_counter,
                    sleep=asyncio.sleep) -> List[Dict]:
    """Release each ``(offset, item)`` at ``start + offset`` whether or
    not earlier requests have finished.

    ``issue(item, due)`` receives the absolute due time.  Latency is
    timed from the due time, so a stalled generator's delay counts
    against the requests it held back; ``lag`` is how late each
    request was sent.
    """
    start = clock()
    tasks = []

    async def one(item, due: float) -> Dict:
        sent = clock()
        result = await issue(item, due)
        return {"due": due, "lag": sent - due,
                "latency": clock() - due, "result": result}

    for offset, item in schedule:
        due = start + offset
        delay = due - clock()
        if delay > 0:
            await sleep(delay)
        tasks.append(asyncio.ensure_future(one(item, due)))
    return list(await asyncio.gather(*tasks))


class Workload:
    """Shared op bookkeeping: ids, timing, the reference check."""

    name = ""
    #: Timed ops in one pass (per-layer metrics are reported per pass).
    ops_per_pass = 0

    def __init__(self, seed: int, smoke: bool, host: HostSpeed):
        self.seed = seed
        self.smoke = smoke
        #: Expected outcomes by op key; ``None`` while recording them.
        self.reference: Optional[Dict] = None
        #: Outcomes seen, by key (what ``--write-reference`` stores).
        self.outcomes: Dict[str, Dict] = {}
        #: Host-speed probes; each op is scaled by the ones around it.
        self.host = host
        self._op_ids = itertools.count()

    def rng(self, *salt) -> random.Random:
        return random.Random(":".join(map(str, (self.seed, *salt))))

    def check(self, key: str, outcome: Dict) -> Tuple[bool, str]:
        seen = self.outcomes.setdefault(key, outcome)
        if self.reference is None:
            return (seen == outcome,
                    "" if seen == outcome else "outcome changed between "
                    "repeats of a deterministic op")
        expected = self.reference.get(key)
        if expected is None:
            return False, f"no reference entry for {key}"
        diffs = [f"{field}={outcome.get(field)!r} expected "
                 f"{expected.get(field)!r}"
                 for field in sorted(set(expected) | set(outcome))
                 if outcome.get(field) != expected.get(field)]
        return not diffs, "; ".join(diffs)

    def op(self, key: str, fn, outcome_of, tracer) -> Tuple[object, Dict]:
        """Run, time and check one op, then probe; never raises."""
        op_id = next(self._op_ids)
        result = None
        started = time.perf_counter()
        try:
            with tracer.op(op_id) if tracer is not None else nullcontext():
                result = fn()
            ended = time.perf_counter()
            outcome = outcome_of(result)
            ok, detail = self.check(key, outcome)
        except Exception as exc:  # noqa: BLE001 - a failed op is data
            ended = time.perf_counter()
            ok, detail, outcome = False, f"{type(exc).__name__}: {exc}", {}
        self.host.take()
        return result, {"key": key, "start": started, "end": ended,
                        "seconds": ended - started, "ok": ok,
                        "detail": detail,
                        "instructions": outcome.get("instructions", 0)}

    def setup(self) -> None:
        raise NotImplementedError

    def pass_budget(self, seconds: float) -> Optional[float]:
        """Seconds of passes to run; ``None`` means the fewest passes
        (the smoke run's single pass)."""
        return None if self.smoke else seconds

    def run_pass(self, index: int, tracer) -> List[Dict]:
        raise NotImplementedError

    def finish(self, seconds: float, tracer) -> List[Dict]:
        """Ops run after the closed-loop passes (serve-warm's open
        loop); their latencies are the workload's ``latency_p50_ms``."""
        return []

    def close(self) -> None:
        pass


class SteadyJvm98(Workload):
    name = "steady-jvm98"
    ops_per_pass = len(JVM98)

    def setup(self) -> None:
        from repro.harness.config import AgentSpec, RunConfig
        from repro.harness.runner import execute
        from repro.jvm.machine import VMConfig
        from repro.launcher import runtime_archive
        from repro.workloads import jvm98_suite

        runtime_archive()
        self.programs = jvm98_suite(8)
        for program in self.programs:
            program.archive
        self.execute = execute
        # template tier and structural verification are the defaults
        self.config = RunConfig(agent=AgentSpec.none(),
                                vm_config=VMConfig(cores=1))

    def run_pass(self, index: int, tracer) -> List[Dict]:
        programs = list(self.programs)
        self.rng("pass", index).shuffle(programs)
        return [self.op(f"{self.name}/{w.name}/scale=8,verify=structural,"
                        f"cores=1",
                        lambda w=w: self.execute(w, self.config),
                        run_outcome, tracer)[1]
                for w in programs]


class ColdStart(Workload):
    name = "cold-start"
    ops_per_pass = 14

    def setup(self) -> None:
        from repro.analysis import driver
        from repro.harness.config import RunConfig
        from repro.harness.runner import execute
        from repro.jvm.machine import VMConfig
        from repro.launcher import runtime_archive
        from repro.workloads import (
            concurrency_suite,
            get_workload,
            io_suite,
            jvm98_suite,
        )

        self.runtime = runtime_archive()
        scheduled = concurrency_suite(1) + io_suite(1)
        self.programs = (jvm98_suite(1) + [get_workload("jbb2005", 1)]
                         + scheduled)
        for program in self.programs:
            program.archive
        self.cores = {w.name: 2 if w in scheduled else 1
                      for w in self.programs}
        self.driver = driver
        self.execute = execute
        self.configs = {cores: RunConfig(vm_config=VMConfig(
            verify="typed", cores=cores)) for cores in (1, 2)}

    def run_pass(self, index: int, tracer) -> List[Dict]:
        programs = list(self.programs)
        self.rng("pass", index).shuffle(programs)
        records = []
        for w in programs:
            cores = self.cores[w.name]

            def run(w=w, cores=cores):
                # through the module attribute, so the traced run's
                # wrapper sees the call
                analysis = self.driver.analyze_archives(
                    [self.runtime, w.archive], typed=True, races=True)
                if tracer is not None:
                    tracer.counts["analysis.methods_analyzed"] += \
                        analysis.report.methods_analyzed
                return analysis, self.execute(w, self.configs[cores])

            def outcome_of(pair):
                analysis, result = pair
                return dict(run_outcome(result),
                            findings=analysis.report.counts())

            records.append(self.op(
                f"{self.name}/{w.name}/scale=1,verify=typed,cores={cores}",
                run, outcome_of, tracer)[1])
        return records


class PaperTables(Workload):
    name = "paper-tables"
    #: Table I: 8 programs x {original, SPA, IPA}; Table II: 8 x 2.
    ops_per_pass = 40

    def setup(self) -> None:
        from repro.harness import parallel
        from repro.harness.overhead import build_table1
        from repro.harness.report import render_table1, render_table2
        from repro.harness.statistics import build_table2
        from repro.launcher import runtime_archive
        from repro.workloads import full_suite

        runtime_archive()
        self.parallel = parallel
        self.tables = (
            ("table1", lambda: render_table1(build_table1(full_suite(1)))),
            ("table2", lambda: render_table2(build_table2(full_suite(1)))),
        )
        self.goldens = {name: (ROOT / "results" / f"{name}.txt").read_text(
            encoding="utf-8") for name, _ in self.tables}

    def run_pass(self, index: int, tracer) -> List[Dict]:
        # The cell order is the table's row order, so it is not shuffled:
        # the pass must stay exactly what `repro table1/table2` do.
        parallel = self.parallel
        run_cell = parallel.run_cell
        records = []

        def timed_cell(cell):
            result, record = self.op(
                f"{self.name}/{cell.workload_name}/agent={cell.agent_name}",
                lambda: run_cell(cell), run_outcome, tracer)
            records.append(record)
            if result is None:
                raise Abort(record["detail"])
            return result

        parallel.run_cell = timed_cell
        try:
            for name, build in self.tables:
                text = build() + "\n"
                same = text == self.goldens[name]
                records.append({
                    "key": f"{self.name}/{name}", "seconds": None,
                    "ok": same, "instructions": 0,
                    "detail": "" if same else
                    f"rendered text differs from results/{name}.txt"})
        except Abort:
            pass  # the failed cell is recorded; its table cannot finish
        finally:
            parallel.run_cell = run_cell
        return records


class ServeWarm(Workload):
    name = "serve-warm"
    ops_per_pass = len(JVM98)
    #: Open-loop arrival rate: about a third of the one-worker
    #: saturation.  Requests arrive evenly spaced, so one waits only
    #: behind a request that outlasts the spacing; at 6/s that happened
    #: whenever the shared host slowed down, and queueing nearly
    #: doubled the median latency of some runs.  At 4/s the slowest
    #: program still fits in the spacing on a host 1.6x slower.
    RPS = 4.0
    #: Share of ``--seconds`` spent in the closed loop; the rest is the
    #: open loop, whose length sets how many requests its median holds.
    CLOSED_SHARE = 0.15
    #: Length of each phase in the smoke run.
    SMOKE_PHASE_SECONDS = 2.0

    def setup(self) -> None:
        from repro.service.pool import ServiceConfig, VMPool, WorkloadRequest

        self.request = WorkloadRequest
        self.in_flight = 0
        self.loop = asyncio.new_event_loop()
        self.pool = VMPool(ServiceConfig(workers=1, warm=True))
        self.loop.run_until_complete(self.pool.start())
        started = time.perf_counter()
        self.loop.run_until_complete(self.pool.preheat(JVM98))
        self.warmup_s = time.perf_counter() - started

    def close(self) -> None:
        self.loop.run_until_complete(self.pool.stop())
        self.loop.close()

    def pass_budget(self, seconds: float) -> float:
        if self.smoke:
            return self.SMOKE_PHASE_SECONDS
        return seconds * self.CLOSED_SHARE

    def deck(self, *salt) -> List[str]:
        """The seven programs in seeded order: whole decks keep the
        request mix identical in every run."""
        programs = list(JVM98)
        self.rng(*salt).shuffle(programs)
        return programs

    async def issue(self, program: str, tracer,
                    due: Optional[float] = None) -> Dict:
        """Submit one request; an open-loop request is timed from its
        due time.  The host is probed whenever the pool falls idle, the
        only time a probe does not compete with a request for the
        interpreter lock."""
        op_id = next(self._op_ids)
        started = time.perf_counter() if due is None else due
        root = None
        if tracer is not None:
            root = tracer.begin_op(op_id, int(started * 1e9))
        key = f"{self.name}/{program}/scale=1,warm"
        self.in_flight += 1
        try:
            outcome = await self.pool.submit(
                self.request(program, request_id=op_id))
        except Exception as exc:  # noqa: BLE001 - a failed op is data
            ok, detail, outcome = False, f"{type(exc).__name__}: {exc}", None
        else:
            if outcome.status != 200 or not outcome.ok:
                ok, detail = False, f"status {outcome.status}: " \
                                    f"{outcome.error}"
            else:
                # a warm request loads, verifies and translates nothing;
                # the reference holds 0 for each, so a request served
                # cold counts as a failed op
                ok, detail = self.check(key, {
                    "instructions": outcome.instructions,
                    "cycles": outcome.cycles,
                    "checksum": outcome.checksum,
                    "warm": outcome.warm,
                    "classes_loaded": outcome.classes_loaded,
                    "methods_verified": outcome.methods_verified,
                    "templates_translated": outcome.templates_translated})
        finally:
            ended = time.perf_counter()
            if root is not None:
                tracer.end_op(root)
            self.in_flight -= 1
        if not self.in_flight:
            self.host.take()
        return {"key": key, "start": started, "end": ended,
                "seconds": ended - started, "ok": ok, "detail": detail,
                "instructions": outcome.instructions if outcome else 0,
                "run_s": outcome.run_seconds if outcome else None,
                "queue_s": outcome.queue_seconds if outcome else None}

    async def _deck(self, programs, tracer) -> List[Dict]:
        return [await self.issue(program, tracer) for program in programs]

    def run_pass(self, index: int, tracer) -> List[Dict]:
        """One closed-loop deck: one request outstanding at a time."""
        return self.loop.run_until_complete(
            self._deck(self.deck("closed", index), tracer))

    def finish(self, seconds: float, tracer) -> List[Dict]:
        """The open loop: ``RPS`` requests a second on a fixed
        schedule, for the rest of ``seconds``, in whole decks."""
        open_seconds = (self.SMOKE_PHASE_SECONDS if self.smoke
                        else seconds - self.pass_budget(seconds))
        decks = max(1, round(open_seconds * self.RPS / len(JVM98)))
        programs = [program for index in range(decks)
                    for program in self.deck("open", index)]
        schedule = [(i / self.RPS, program)
                    for i, program in enumerate(programs)]
        if tracer is not None:
            tracer.install()
        try:
            rows = self.loop.run_until_complete(open_loop(
                schedule, lambda program, due: self.issue(
                    program, tracer, due)))
        finally:
            if tracer is not None:
                tracer.uninstall()
        return [dict(row["result"], lag=row["lag"]) for row in rows]


WORKLOADS = {cls.name: cls for cls in (SteadyJvm98, PaperTables,
                                       ColdStart, ServeWarm)}


def load_reference(path) -> Dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
