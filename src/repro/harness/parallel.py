"""Parallel execution of independent harness cells.

A *cell* is one (workload × agent-config) execution — the independent
unit of Table I/II.  Cells share nothing at the simulation level (each
builds its own VM), so they fan out across worker processes freely; the
only requirement is a deterministic merge, which :func:`run_cells`
guarantees by returning results in the order the cells were given,
regardless of completion order.

Agent factories are callables (sometimes closures) and thus not
picklable, so a :class:`CellSpec` carries a *description* — workload
registry name + scale, agent name + kwargs — and each worker rebuilds
the live objects on its side.  Workloads not present in the registry
(e.g. ad-hoc test workloads) cannot be described this way; the table
builders fall back to in-process execution for those.

Workers are forked when the platform allows it, after the parent has
warmed the runtime-archive cache, so every worker inherits the built
runtime library through copy-on-write instead of rebuilding it.
"""

from __future__ import annotations

import json
import multiprocessing
import signal
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import HarnessError
from repro.harness.config import AgentSpec, RunConfig
from repro.harness.runner import RunResult, execute
from repro.jvm.machine import VMConfig
from repro.observability import logging as obs_logging
from repro.observability.sink import ObservabilityConfig

log = obs_logging.get_logger("harness.parallel")

#: Agent names a cell may reference (the CLI's agent vocabulary).
_AGENT_BUILDERS = {
    "none": lambda kwargs: AgentSpec.none(),
    "original": lambda kwargs: AgentSpec.none(),
    "spa": lambda kwargs: AgentSpec.spa(),
    "ipa": lambda kwargs: AgentSpec.ipa(**kwargs),
    "callchain": lambda kwargs: AgentSpec.callchain(**kwargs),
}


@dataclass
class CellSpec:
    """Picklable description of one (workload × agent) cell."""

    workload_name: str
    scale: int = 1
    agent_name: str = "none"
    agent_kwargs: Dict = field(default_factory=dict)
    runs: int = 1
    vm_config: Optional[VMConfig] = None
    #: What to observe during the cell (``None`` = nothing).
    observability: Optional[ObservabilityConfig] = None
    #: Where the worker writes its capture document.  Workers emit
    #: per-process files (one per cell) instead of piping captures
    #: through IPC; the parent merges them in fixed cell order.
    observability_path: Optional[str] = None
    #: Position in the submitted cell list (stamped by
    #: :func:`run_cells`); workers use it as their log prefix so
    #: interleaved stderr stays attributable.
    index: Optional[int] = None
    #: Parent logging configuration, re-applied on the worker side
    #: (fork inherits it; spawn needs the explicit copy).
    log_config: Optional[tuple] = None


def describable(workload) -> bool:
    """True when ``workload`` can be rebuilt from the registry by name
    (the requirement for shipping a cell to another process)."""
    from repro.workloads.suite import registered

    return registered(workload)


def run_cell(cell: CellSpec) -> RunResult:
    """Rebuild a cell's workload and config, then execute it."""
    from repro.workloads import get_workload

    if cell.log_config is not None and cell.index is not None:
        level, json_mode = cell.log_config
        obs_logging.configure(level=level, json_mode=json_mode,
                              worker=f"w{cell.index:02d}")
    log.debug("cell start", workload=cell.workload_name,
              agent=cell.agent_name, runs=cell.runs)
    builder = _AGENT_BUILDERS.get(cell.agent_name)
    if builder is None:
        raise HarnessError(
            f"unknown agent {cell.agent_name!r}; "
            f"known: {sorted(_AGENT_BUILDERS)}")
    workload = get_workload(cell.workload_name, scale=cell.scale)
    config = RunConfig(agent=builder(cell.agent_kwargs),
                       vm_config=cell.vm_config or VMConfig(),
                       runs=cell.runs,
                       observability=cell.observability)
    result = execute(workload, config)
    if cell.observability_path is not None:
        with open(cell.observability_path, "w",
                  encoding="utf-8") as fh:
            json.dump(result.observability, fh)
        result.observability = None  # travels via the file instead
    # live agents close over the VM (unpicklable closures) — results
    # crossing a process boundary must not drag the simulation along
    result.agent_object = None
    log.debug("cell done", workload=cell.workload_name,
              agent=cell.agent_name, cycles=result.cycles)
    return result


def run_cells(cells: List[CellSpec], jobs: int = 1) -> List[RunResult]:
    """Execute ``cells``, fanning across ``jobs`` processes.

    Results come back in cell order — the merge is deterministic and
    identical to a serial run.
    """
    if jobs < 1:
        raise HarnessError(f"jobs must be >= 1, got {jobs}")
    jobs = min(jobs, len(cells))
    if jobs <= 1:
        return [run_cell(cell) for cell in cells]

    # warm shared caches before forking so workers inherit them
    from repro.launcher import runtime_archive

    runtime_archive()
    # stamp cell indices + the parent's logging config so worker log
    # lines carry a stable `worker=wNN` prefix (parent state is left
    # untouched: serial runs above never reach this)
    log_config = obs_logging.snapshot()
    for index, cell in enumerate(cells):
        cell.index = index
        cell.log_config = log_config
    methods = multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context(
        "fork" if "fork" in methods else None)
    with ctx.Pool(processes=jobs, initializer=_worker_init) as pool:
        return pool.map(run_cell, cells)


def _worker_init() -> None:
    """A forked worker inherits the parent's signal handlers, among
    them the CLI's SIGTERM-to-KeyboardInterrupt handler; restore the
    default so ``Pool`` shutdown (SIGTERM to every worker) ends them
    quietly.  The parent keeps its handler and flushes a partial
    manifest."""
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
