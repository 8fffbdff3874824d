"""Pass orchestration: run every analysis pass over one compiled circuit.

:func:`analyze` is the single entry point used by
``compile_circuit(check=True)``, the ``repro lint`` CLI and the test
suite.  It always runs every pass registered in :data:`PASSES`, in order.
"""

from __future__ import annotations

from repro.analyze.constrained import check_constrained
from repro.analyze.cost import check_cost
from repro.analyze.diagnostics import AnalysisReport
from repro.analyze.redundancy import check_redundancy
from repro.analyze.structural import check_structure

__all__ = ["PASSES", "analyze"]

#: Ordered pass registry: name -> callable(circuit) -> list[Diagnostic].
PASSES = {
    "structure": check_structure,
    "constrained": check_constrained,
    "redundancy": check_redundancy,
    "cost": check_cost,
}


def analyze(circuit, *, expected_constraints=None):
    """Run the static analyzer over a
    :class:`~repro.circuit.compiler.CompiledCircuit`.

    Parameters
    ----------
    circuit:
        The compiled circuit (optimized or not).
    expected_constraints:
        The gadget's expected size; enables the ``ZK402`` blowup lint.

    Returns
    -------
    AnalysisReport
        Sorted (severity-first) diagnostics plus R1CS stats.
    """
    report = AnalysisReport(circuit.name, stats=circuit.r1cs.stats())
    for name, check in PASSES.items():
        if name == "cost":
            report.extend(check(circuit, expected_constraints))
        else:
            report.extend(check(circuit))
    return report.finalize()
