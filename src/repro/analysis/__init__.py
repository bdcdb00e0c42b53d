"""Static analysis subsystem.

Whole-program analyses over class archives, all working on pre-decoded
bytecode (instruction indices, resolved labels) and on the control-flow
graphs of :mod:`repro.bytecode.flow`:

* :mod:`repro.analysis.typed_verifier` — abstract-interpretation typed
  verifier (type lattice, fixpoint merge at joins and handlers);
* :mod:`repro.analysis.callgraph` — class hierarchy + CHA call graph;
* :mod:`repro.analysis.boundary` — static J2N/N2J native-boundary
  analysis and the static-vs-dynamic cross-check;
* :mod:`repro.analysis.lint` — Figure-2 instrumentation linter;
* :mod:`repro.analysis.races` — thread-escape + Eraser-lockset race
  prediction and the dynamic-vs-static race cross-check;
* :mod:`repro.analysis.locks` — static lock-order graph and
  deadlock-potential cycles;
* :mod:`repro.analysis.driver` — one-call driver + metrics folding;
* :mod:`repro.analysis.findings` — the shared finding/report types.
"""

from repro.analysis.boundary import (
    BoundaryCheck,
    NativeBoundaryReport,
    analyze_boundary,
    cross_check,
)
from repro.analysis.callgraph import (
    CallGraph,
    ClassHierarchy,
    build_call_graph,
    build_hierarchy,
)
from repro.analysis.driver import (
    AnalysisResult,
    analyze_archives,
    record_analysis_metrics,
    static_native_check,
    static_race_check,
)
from repro.analysis.findings import AnalysisReport, Finding, Severity
from repro.analysis.lint import lint_archives, lint_classfile
from repro.analysis.locks import LockOrderGraph
from repro.analysis.races import RaceAnalysis, RaceCheck, analyze_races
from repro.analysis.typed_verifier import (
    analyze_class_types,
    analyze_method_types,
    typed_verify_class,
)

__all__ = [
    "AnalysisReport",
    "AnalysisResult",
    "BoundaryCheck",
    "CallGraph",
    "ClassHierarchy",
    "Finding",
    "LockOrderGraph",
    "NativeBoundaryReport",
    "RaceAnalysis",
    "RaceCheck",
    "Severity",
    "analyze_archives",
    "analyze_boundary",
    "analyze_races",
    "analyze_class_types",
    "analyze_method_types",
    "build_call_graph",
    "build_hierarchy",
    "cross_check",
    "lint_archives",
    "lint_classfile",
    "record_analysis_metrics",
    "static_native_check",
    "static_race_check",
    "typed_verify_class",
]
