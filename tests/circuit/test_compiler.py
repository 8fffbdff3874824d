"""Compile-stage tests: lowering correctness and traced-path equivalence."""

from repro.circuit import CircuitBuilder, compile_circuit, gadgets
from repro.fields import BN254_FR
from repro.perf.trace import Tracer, tracing

FR = BN254_FR


def pow_builder(e=4):
    b = CircuitBuilder(f"pow{e}", FR)
    x = b.private_input("x")
    b.output(gadgets.exponentiate(b, x, e), "y")
    return b


def public_names(circ):
    """``(public, private)`` input names, by membership of each input's
    wire in the R1CS public wires."""
    pub = set(circ.r1cs.public_wires)
    names = circ.input_wires.items()
    return ([n for n, w in names if w in pub],
            [n for n, w in names if w not in pub])


class TestLowering:
    def test_constraint_count(self):
        circ = compile_circuit(pow_builder(6))
        assert circ.n_constraints == 6

    def test_metadata(self):
        circ = compile_circuit(pow_builder())
        assert circ.name == "pow4"
        assert set(circ.input_wires) == {"x"}
        assert set(circ.output_wires) == {"y"}
        assert public_names(circ) == ([], ["x"])

    def test_public_input_classification(self):
        b = CircuitBuilder("c", FR)
        p = b.public_input("p")
        s = b.private_input("s")
        b.output(p * s, "out")
        circ = compile_circuit(b)
        assert public_names(circ) == (["p"], ["s"])

    def test_coefficients_normalized(self):
        b = CircuitBuilder("c", FR)
        x = b.private_input("x")
        # scale by -1: coefficient must come out reduced, not negative.
        b.assert_mul(x.scale(-1), x, x.scale(-1))
        circ = compile_circuit(b)
        for cons in circ.r1cs.constraints:
            for row in (cons.a, cons.b, cons.c):
                for coeff in row.values():
                    assert 0 < coeff < FR.modulus

    def test_program_preserved(self):
        b = pow_builder(5)
        circ = compile_circuit(b)
        assert len(circ.program) == 5  # one mul step per gate
        assert all(step[0] == "mul" for step in circ.program)

    def test_repr(self):
        assert "pow4" in repr(compile_circuit(pow_builder()))


class TestTracedPath:
    def test_traced_result_identical(self):
        plain = compile_circuit(pow_builder(8))
        with tracing(Tracer()):
            traced = compile_circuit(pow_builder(8))
        assert traced.n_constraints == plain.n_constraints
        assert traced.r1cs.public_wires == plain.r1cs.public_wires
        for c1, c2 in zip(plain.r1cs.constraints, traced.r1cs.constraints):
            assert (c1.a, c1.b, c1.c) == (c2.a, c2.b, c2.c)

    def test_stage_regions_present(self):
        tr = Tracer()
        with tracing(tr):
            compile_circuit(pow_builder(8))
        names = {r.name for r in tr.iter_regions()}
        assert {"compile_startup", "compile_traverse", "compile_normalize",
                "compile_assemble", "compile_serialize"} <= names

    def test_normalize_region_is_parallel(self):
        tr = Tracer()
        with tracing(tr):
            compile_circuit(pow_builder(8))
        regions = {r.name: r for r in tr.iter_regions()}
        assert regions["compile_normalize"].parallel
        assert not regions["compile_traverse"].parallel

    def test_malloc_and_memcpy_reported(self):
        tr = Tracer()
        with tracing(tr):
            compile_circuit(pow_builder(8))
        counts = tr.total_counts()
        assert counts["malloc"] > 0
        assert counts["memcpy"] > 0
        assert counts["graph_walk"] > 0

    def test_work_scales_with_constraints(self):
        t1, t2 = Tracer(), Tracer()
        with tracing(t1):
            compile_circuit(pow_builder(8))
        with tracing(t2):
            compile_circuit(pow_builder(64))
        assert t2.total_counts()["graph_walk"] > t1.total_counts()["graph_walk"]
