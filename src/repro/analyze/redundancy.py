"""Redundant- and dead-constraint detection (``ZK3xx``).

:func:`scan_redundancy` classifies tautology / duplicate /
unsatisfiable rows, and :func:`check_redundancy` reports them as
diagnostics (an unsatisfiable circuit is a ``ZK303`` *error*).  Fixing a
finding is the circuit author's job: the compiler keeps every row.

Dead wires — referenced by no constraint and visible to neither the
verifier nor the IO maps — are reported as ``ZK304``: they inflate the
witness vector, the setup keys and every MSM length until the author
stops allocating them.
"""

from __future__ import annotations

from repro.analyze.diagnostics import ERROR, INFO, WARNING, Diagnostic

__all__ = [
    "check_redundancy",
    "is_constant_row",
    "row_key",
    "scan_redundancy",
]

#: Classification kinds produced by :func:`scan_redundancy`.
TAUTOLOGY = "tautology"
UNSATISFIABLE = "unsatisfiable"
DUPLICATE = "duplicate"


def is_constant_row(row):
    """True when the row involves only the constant wire (or nothing)."""
    return not row or set(row) == {0}


def row_key(row):
    """Hashable identity of a sparse row (order-independent)."""
    return tuple(sorted(row.items()))


def scan_redundancy(fr, constraints):
    """Classify redundant rows; yields ``(index, kind)`` pairs.

    ``kind`` is :data:`TAUTOLOGY` (constant row, holds for every witness),
    :data:`UNSATISFIABLE` (constant row, holds for none) or
    :data:`DUPLICATE` (structurally identical to an earlier kept row).
    Rows it does not yield are genuine, distinct constraints.
    """
    seen = set()
    for idx, cons in enumerate(constraints):
        if (is_constant_row(cons.a) and is_constant_row(cons.b)
                and is_constant_row(cons.c)):
            lhs = fr.mul(cons.a.get(0, 0), cons.b.get(0, 0))
            if lhs != cons.c.get(0, 0):
                yield idx, UNSATISFIABLE
            else:
                yield idx, TAUTOLOGY
            continue
        key = (row_key(cons.a), row_key(cons.b), row_key(cons.c))
        if key in seen:
            yield idx, DUPLICATE
            continue
        seen.add(key)


def check_redundancy(circuit):
    """Redundancy lints: tautologies, duplicates, unsat rows, dead wires."""
    r1cs = circuit.r1cs
    diags = []
    for idx, kind in scan_redundancy(r1cs.fr, r1cs.constraints):
        if kind == UNSATISFIABLE:
            diags.append(Diagnostic(
                code="ZK303", severity=ERROR, constraint=idx,
                message="constant constraint is violated: the circuit is "
                        "unsatisfiable (no witness exists)",
                suggestion="fix the constants; proving will always fail",
            ))
        elif kind == TAUTOLOGY:
            diags.append(Diagnostic(
                code="ZK301", severity=INFO, constraint=idx,
                message="constant constraint holds for every witness "
                        "(tautology)",
                suggestion="remove the constraint from the circuit",
            ))
        else:
            diags.append(Diagnostic(
                code="ZK302", severity=WARNING, constraint=idx,
                message="constraint duplicates an earlier row",
                suggestion="remove the repeated constraint; duplicates "
                           "cost a QAP domain slot each",
            ))

    live = {0}
    live.update(r1cs.public_wires)
    live.update(circuit.input_wires.values())
    live.update(circuit.output_wires.values())
    for cons in r1cs.constraints:
        live |= cons.wires()
    for w in range(r1cs.n_wires):
        if w not in live:
            diags.append(Diagnostic(
                code="ZK304", severity=INFO, wire=w,
                message=f"wire {r1cs.labels.get(w, w)!r} is dead: no "
                        f"constraint or declaration references it",
                suggestion="stop allocating the wire; it inflates the "
                           "witness vector and keys",
            ))
    return diags
