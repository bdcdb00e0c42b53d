"""Whole-program analysis driver: one call, every pass.

Glues the pieces together for ``repro analyze`` and the harness's
boundary cross-check: builds the class hierarchy over a set of
archives, runs the structural + typed verifier over every method, wires
the CHA call graph, slices the native boundary, and (optionally) lints
the Figure-2 instrumentation.  Also folds the results into a
:class:`~repro.observability.metrics.MetricsRegistry` so analysis
counters travel with the run's other metrics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from repro.analysis.boundary import (
    BoundaryCheck,
    NativeBoundaryReport,
    analyze_boundary,
    cross_check,
)
from repro.analysis.callgraph import (
    CallGraph,
    build_call_graph,
    build_hierarchy,
)
from repro.analysis.findings import AnalysisReport, Finding, Severity
from repro.analysis.lint import lint_classfile
from repro.analysis.races import RaceAnalysis, RaceCheck, analyze_races
from repro.analysis.typed_verifier import typed_report
from repro.instrument.wrapper_gen import InstrumentationConfig


@dataclass
class AnalysisResult:
    """Everything one driver pass produced."""

    report: AnalysisReport
    graph: CallGraph
    boundary: NativeBoundaryReport
    races: Optional[RaceAnalysis] = None

    def to_json(self) -> dict:
        data = {
            "report": self.report.to_json(),
            "boundary": self.boundary.to_json(),
            "entry_points": sorted(self.graph.entry_points),
            "call_graph_size": {
                "methods": len(self.graph.methods),
                "call_sites": len(self.graph.call_sites),
                "edges": sum(len(v) for v in self.graph.edges.values()),
            },
        }
        if self.races is not None:
            data["races"] = self.races.to_json()
        return data


def analyze_archives(archives,
                     check_instrumentation: bool = False,
                     instrumentation: Optional[InstrumentationConfig]
                     = None,
                     require_instrumented: bool = True,
                     typed: bool = True,
                     races: bool = False) -> AnalysisResult:
    """Run verifier (+ optional linter) + CHA + boundary over
    ``archives`` (classpath order).  Each class's typed report comes
    from the per-process memo, keyed by its bytes."""
    archives = list(archives)
    report = AnalysisReport()
    hierarchy = build_hierarchy(archives)
    data_of = {}
    for archive in archives:
        for name in archive:
            data_of.setdefault(name, archive.get_bytes(name))

    for cf in hierarchy.classes.values():
        if typed:
            report.merge(typed_report(data_of[cf.name]))
        else:
            report.classes_analyzed += 1
            report.methods_analyzed += len(cf.methods)
        if check_instrumentation:
            report.extend(lint_classfile(
                cf, instrumentation,
                require_instrumented=require_instrumented))

    graph = build_call_graph(hierarchy)
    for site in graph.unresolved:
        report.add(Finding(
            severity=Severity.INFO, rule="unresolved-call",
            class_name=graph.owner.get(site.caller, ""),
            method=site.caller, pc=site.pc,
            message=f"no target found for {site.symbolic}"))

    boundary = analyze_boundary(graph)
    race_result = None
    if races:
        race_result = analyze_races(hierarchy, graph)
        report.merge(race_result.report)
    return AnalysisResult(report=report, graph=graph,
                          boundary=boundary, races=race_result)


def static_native_check(archives,
                        dynamic_qnames: Iterable[str],
                        instrumentation: Optional[InstrumentationConfig]
                        = None) -> BoundaryCheck:
    """The harness-facing shortcut: static boundary of ``archives``
    cross-checked against the natives a run actually resolved."""
    hierarchy = build_hierarchy(archives)
    boundary = analyze_boundary(build_call_graph(hierarchy))
    return cross_check(boundary, dynamic_qnames, instrumentation)


def static_race_check(archives, dynamic_races) -> RaceCheck:
    """The harness-facing shortcut for ``--race-check``: static race
    prediction over ``archives`` intersected with the races a sanitized
    run actually confirmed (dynamic must be a subset of static)."""
    hierarchy = build_hierarchy(archives)
    analysis = analyze_races(hierarchy)
    return RaceCheck(analysis.racy_fields, list(dynamic_races))


def record_analysis_metrics(registry, result: AnalysisResult,
                            check: Optional[BoundaryCheck] = None
                            ) -> None:
    """Fold analysis results into a metrics registry."""
    counts = result.report.counts()
    registry.inc("analysis_classes_analyzed",
                 result.report.classes_analyzed)
    registry.inc("analysis_methods_verified",
                 result.report.methods_analyzed)
    for severity, count in counts.items():
        registry.inc(f"analysis_findings_{severity}", count)
    registry.inc("analysis_static_j2n_sites",
                 len(result.boundary.j2n_sites))
    registry.inc("analysis_static_natives",
                 len(result.boundary.declared_natives))
    if check is not None:
        registry.set_gauge("analysis_native_coverage", check.coverage)
        registry.inc("analysis_boundary_violations",
                     len(check.violations))
    if result.races is not None:
        registry.inc("race_warnings", result.races.race_warnings)
        registry.inc("lockset_violations",
                     result.races.lockset_violations)
        registry.inc("deadlock_potentials",
                     result.races.deadlock_potentials)
