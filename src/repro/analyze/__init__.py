"""Constraint-system static analysis (circomspect's role).

An under-constrained circuit is the worst failure mode a zk-SNARK pipeline
has: the proof verifies for witnesses the author never intended, and no
benchmark in the paper's harness would notice.  This package analyzes a
compiled circuit for that bug class and its neighbours:

========  ========  ====================================================
code      severity  meaning
========  ========  ====================================================
ZK101     error     wire index outside the witness vector
ZK102     error     coefficient not reduced into the scalar field
ZK103     warning   explicit zero coefficient stored in a row
ZK104     warning   degenerate constraint (all rows empty)
ZK105     info      label references an out-of-range wire
ZK201     error     output wire appears in no constraint
ZK202     error     hint-computed wire appears in no constraint
ZK203     warning   input wire appears in no constraint
ZK204     warning   constrained wire never assigned by the program
ZK301     info      constant tautology row
ZK302     warning   duplicate constraint
ZK303     error     unsatisfiable constant row
ZK304     info      dead wire (compaction candidate)
ZK401     warning   dense row degrading sparse-walk cost
ZK402     warning   constraint-count blowup vs. expected gadget size
ZK403     info      QAP power-of-two domain mostly padding
========  ========  ====================================================

Entry points: :func:`analyze` (library),
``compile_circuit(builder, check=True)`` (raises
:class:`CircuitAnalysisError` on error-severity findings), and
``python -m repro lint`` (CLI over every built-in circuit).  The linter
of the repository's own source is not part of this package: it is the
repository tool ``tools/codelint`` (``python -m tools.codelint``).
"""

from repro.analyze.analyzer import PASSES, analyze
from repro.analyze.diagnostics import (
    AnalysisReport,
    CircuitAnalysisError,
    Diagnostic,
    render_reports,
    reports_to_json,
)

__all__ = [
    "AnalysisReport",
    "CircuitAnalysisError",
    "Diagnostic",
    "PASSES",
    "analyze",
    "render_reports",
    "reports_to_json",
]
