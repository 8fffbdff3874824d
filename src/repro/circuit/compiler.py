"""The *compile* stage: lower an authored circuit into R1CS.

This mirrors circom's pipeline — walk the gate list, normalize coefficients,
emit the sparse constraint matrices, and serialize them into an ``.r1cs``-
shaped byte buffer.  The instrumentation reproduces the stage's signature
from the paper: allocation-heavy (``malloc`` ~12% of CPU time), copy-heavy
(``memcpy`` ~8%), data-flow-intensive overall (Table V), with only a modest
parallelizable fraction (~34-42%, Table VI — the traversal and serialization
are inherently sequential; only per-constraint normalization fans out).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.circuit.r1cs import R1CS, Constraint
from repro.context import RUN

__all__ = ["CompiledCircuit", "compile_circuit"]

#: Bytes per serialized (wire index, coefficient) entry: 4-byte index plus a
#: 32-byte field element, circom's .r1cs layout.
_ENTRY_BYTES = 36

#: Modeled size of the compiler image + elaborated template structures the
#: startup phase touches (circom is a multi-MB Rust binary; only part of it
#: is hot).
_COMPILER_IMAGE_BYTES = 192 * 1024

#: Modeled AST/gate-graph heap the traversal pointer-chases across.  Sized
#: so the dependent walks miss the (scaled) LLC on every machine — the
#: pointer-chasing back-end-boundness circom shows on the i5/i9 (Fig. 4).
_AST_HEAP_BYTES = 2 * 1024 * 1024

#: Fixed front-of-compiler work (lexing, parsing, type checking, template
#: elaboration) in bulk primitives.  Volumes calibrated against the paper's
#: Table IV compile-stage hotspot shares (malloc ~12%, memcpy ~8%,
#: bigint ~5%).  These are op-only costs: the structures involved are small
#: and cache-resident, so they contribute instructions, not LLC traffic.
_STARTUP_OPS = (
    ("graph_walk", 420_000),
    ("malloc", 14_000),
    ("malloc_page", 7_000),
    ("memcpy", 34_000),
    ("bigint_mul_4", 5_200),
    ("json_parse_field", 2_000),
)

#: Per-constraint simplification work (op-only, same reasoning as above).
_PER_CONSTRAINT_OPS = (
    ("graph_walk", 640),
    ("malloc", 28),
    ("memcpy", 72),
    ("bigint_mul_4", 12),
)


@dataclass
class CompiledCircuit:
    """The compile stage's output: constraints plus the witness recipe.

    ``program`` is the straight-line witness-generation program (the role of
    circom's emitted WASM module); the witness stage interprets it.
    """

    name: str
    r1cs: R1CS
    program: list
    input_wires: dict
    output_wires: dict

    @property
    def n_constraints(self):
        return self.r1cs.n_constraints

    def public_input_names(self):
        pub = set(self.r1cs.public_wires)
        return [n for n, w in self.input_wires.items() if w in pub]

    def private_input_names(self):
        pub = set(self.r1cs.public_wires)
        return [n for n, w in self.input_wires.items() if w not in pub]

    def __repr__(self):
        return f"CompiledCircuit({self.name}, {self.r1cs!r})"


def compile_circuit(builder, check=False):
    """Lower a :class:`~repro.circuit.dsl.CircuitBuilder` into a
    :class:`CompiledCircuit` (the workflow's *compile* stage).

    Pure function of the builder's recorded gates; when a tracer is active
    the stage's characteristic work (traversal, normalization, matrix
    assembly, serialization) is reported region by region.

    With ``check=True`` the compiled circuit is run through the static
    analyzer (:func:`repro.analyze.analyze`) and a
    :class:`~repro.analyze.CircuitAnalysisError` is raised on any
    error-severity diagnostic — e.g. an under-constrained output or an
    unsatisfiable constant row.
    """
    t = RUN.tracer
    fr = builder.fr
    if t is None:
        constraints = [
            Constraint(_normalize(fr, a), _normalize(fr, b), _normalize(fr, c))
            for a, b, c in builder.constraints
        ]
        r1cs = R1CS(fr, builder.n_wires, builder.public_wires, constraints, builder.labels)
        return _finish(CompiledCircuit(
            name=builder.name,
            r1cs=r1cs,
            program=list(builder.program),
            input_wires=dict(builder.input_wires),
            output_wires=dict(builder.output_wires),
        ), check)

    # -- traced path: same result, with the stage's workload made visible ----
    constraints = []
    with t.region("compile_startup", parallel=False):
        # Compiler initialization: binary load, source parse, template
        # elaboration — the fixed cost every circom invocation pays.
        binary = t.malloc(_COMPILER_IMAGE_BYTES)
        t.stream(binary, _COMPILER_IMAGE_BYTES, ticks_per_kb=32, op_name="graph_walk")
        for prim, n in _STARTUP_OPS:
            t.op(prim, n)
        t.op("json_parse_field", 64 + len(builder.input_wires) * 4)
        t.page_fault(1 + _COMPILER_IMAGE_BYTES // 16384)

    ast_heap = t.malloc(_AST_HEAP_BYTES)
    with t.region("compile_traverse", parallel=False):
        # Gate-graph traversal: pointer chasing across the AST heap.
        for j, (a, b, c) in enumerate(builder.constraints):
            t.op("graph_walk", 1 + len(a) + len(b) + len(c))
            # Dependent pointer hops per constraint, scattered over the
            # heap (Fibonacci hashing gives a uniform-but-deterministic walk).
            for hop in range(2):
                t.mem_load(ast_heap + ((2 * j + hop) * 2654435761) % _AST_HEAP_BYTES, 48)

    with t.region("compile_normalize", parallel=True, items=len(builder.constraints)):
        # Constraint simplification/normalization — circom's per-constraint
        # bulk work, and the stage's parallelizable fraction (Table VI).
        for a, b, c in builder.constraints:
            for prim, n in _PER_CONSTRAINT_OPS:
                t.op(prim, n)
            na = _normalize(fr, a, traced=True)
            nb = _normalize(fr, b, traced=True)
            nc = _normalize(fr, c, traced=True)
            constraints.append(Constraint(na, nb, nc))

    with t.region("compile_assemble", parallel=False):
        # Sparse-matrix assembly: one allocation per row triple plus a copy
        # of every entry into the matrix arena.
        arena = t.malloc(_ENTRY_BYTES * max(_nnz(constraints), 1))
        offset = 0
        for cons in constraints:
            row_bytes = _ENTRY_BYTES * (len(cons.a) + len(cons.b) + len(cons.c))
            t.malloc(row_bytes + 48)
            t.memcpy(arena + offset, arena + offset, max(row_bytes, 1))
            offset += row_bytes

    with t.region("compile_serialize", parallel=False):
        # .r1cs emission: read the arena, write the output buffer.
        total = _ENTRY_BYTES * max(_nnz(constraints), 1)
        out = t.malloc(total)
        t.stream(arena, total, ticks_per_kb=40, op_name="memcpy_chunk")
        t.stream(out, total, write=True, ticks_per_kb=40, op_name="memcpy_chunk")
        t.page_fault(1 + total // 4096)

    r1cs = R1CS(fr, builder.n_wires, builder.public_wires, constraints, builder.labels)
    return _finish(CompiledCircuit(
        name=builder.name,
        r1cs=r1cs,
        program=list(builder.program),
        input_wires=dict(builder.input_wires),
        output_wires=dict(builder.output_wires),
    ), check)


def _finish(compiled, check):
    """Optionally gate the compile on a clean static-analysis report."""
    if check:
        # Imported here: repro.analyze is a consumer of this module's types.
        from repro.analyze import CircuitAnalysisError, analyze

        report = analyze(compiled)
        if report.has_errors:
            raise CircuitAnalysisError(report)
    return compiled


def _normalize(fr, row, traced=False):
    """Reduce every coefficient into canonical range, dropping zeros.

    Traced cost: one Montgomery-form conversion multiply plus a reduction
    add per nonzero coefficient (what circom's field writer performs)."""
    t = RUN.tracer if traced else None
    out = {}
    for wire, coeff in row.items():
        if t is not None:
            t.op(f"bigint_mul_{fr.limbs}")
            t.op(f"bigint_add_{fr.limbs}")
        coeff %= fr.modulus
        if coeff:
            out[wire] = coeff
    return out


def _nnz(constraints):
    return sum(len(c.a) + len(c.b) + len(c.c) for c in constraints)
