"""Seeded-bug fixtures: every analysis pass must catch its target bug
(true positives) while every shipped circuit analyzes clean (no false
positives)."""

import random

import pytest

from repro.analyze import CircuitAnalysisError, analyze
from repro.circuit import CircuitBuilder, compile_circuit
from repro.curves import get_curve
from repro.fields import BN254_FR
from repro.groth16 import generate_witness, prove, public_inputs, setup, verify
from repro.harness.circuits import lint_targets

FR = BN254_FR


def codes(report):
    return report.codes()


# -- pass 1: structural soundness -------------------------------------------------


class TestStructural:
    def _square(self):
        b = CircuitBuilder("structural", FR)
        x = b.private_input("x")
        b.output(b.mul(x, x), "y")
        return compile_circuit(b)

    def test_wire_out_of_range(self):
        circ = self._square()
        circ.r1cs.constraints[0].a[999] = 1
        report = analyze(circ)
        assert "ZK101" in codes(report)
        assert report.has_errors

    def test_unreduced_coefficient(self):
        circ = self._square()
        row = circ.r1cs.constraints[0].a
        wire = next(iter(row))
        row[wire] = FR.modulus  # == 0 mod p, but not reduced
        report = analyze(circ)
        assert "ZK102" in codes(report)
        assert report.has_errors

    def test_explicit_zero_coefficient(self):
        circ = self._square()
        circ.r1cs.constraints[0].a[1] = 0
        assert "ZK103" in codes(analyze(circ))

    def test_degenerate_row(self):
        b = CircuitBuilder("degenerate", FR)
        x = b.private_input("x")
        b.output(b.mul(x, x), "y")
        b.constraints.append(({}, {}, {}))
        report = analyze(compile_circuit(b))
        assert "ZK104" in codes(report)
        assert not report.has_errors  # warning, not error

    def test_stale_label(self):
        circ = self._square()
        circ.r1cs.labels[999] = "ghost"
        assert "ZK105" in codes(analyze(circ))

    def test_program_wire_out_of_range(self):
        circ = self._square()
        circ.program.append(("mul", (((1, 1),), 0), (((999, 1),), 0), 2))
        report = analyze(circ)
        assert "ZK101" in codes(report)


# -- pass 2: under-constrained signals --------------------------------------------


def build_underconstrained_output():
    """y = x^3 whose output-defining constraint has been dropped: the
    witness program still computes y, but the proof never checks it."""
    b = CircuitBuilder("underconstrained_out", FR)
    x = b.private_input("x")
    w = b.mul(x, x)
    y = b.mul(w, x)
    b.output(y, "y")
    b.constraints.pop()  # orphan the w * x == y gate
    return compile_circuit(b)


class TestUnderConstrained:
    def test_unconstrained_output_flagged(self):
        report = analyze(build_underconstrained_output())
        assert "ZK201" in codes(report)
        assert report.has_errors

    def test_invalid_witness_verifies_without_the_constraint(self):
        """The vulnerability ZK201 exists to catch: with the output
        unconstrained, a forged witness claiming y = 999 still proves and
        verifies — soundness is gone and nothing else in the pipeline
        notices."""
        circ = build_underconstrained_output()
        curve = get_curve("bn128")
        rng = random.Random(7)
        pk, vk = setup(curve, circ, rng)

        honest = generate_witness(circ, {"x": 3})
        y_wire = circ.output_wires["y"]
        assert honest[y_wire] == 27

        forged = list(honest)
        forged[y_wire] = 999  # a lie about x^3
        assert circ.r1cs.is_satisfied(forged)  # nothing constrains y
        proof = prove(pk, circ, forged, rng)
        assert verify(vk, proof, public_inputs(circ, forged))

    def test_unconstrained_hint_flagged(self):
        b = CircuitBuilder("free_hint", FR)
        x = b.private_input("x")
        b.hint(lambda fr, v: [fr.mul(v[0], v[0])], [x], 1, label="sq")
        b.output(b.mul(x, x), "y")
        report = analyze(compile_circuit(b))
        assert "ZK202" in codes(report)
        assert report.has_errors

    def test_constrained_hint_clean(self):
        b = CircuitBuilder("pinned_hint", FR)
        x = b.private_input("x")
        (sq,) = b.hint(lambda fr, v: [fr.mul(v[0], v[0])], [x], 1, label="sq")
        b.assert_mul(x, x, sq)
        b.output(b.mul(sq, x), "y")
        report = analyze(compile_circuit(b))
        assert "ZK202" not in codes(report)
        assert not report.has_errors

    def test_dangling_input_warns(self):
        b = CircuitBuilder("dangling", FR)
        x = b.private_input("x")
        b.private_input("unused")
        b.output(b.mul(x, x), "y")
        report = analyze(compile_circuit(b))
        assert "ZK203" in codes(report)

    def test_unassigned_constrained_wire_warns(self):
        b = CircuitBuilder("ghost", FR)
        x = b.private_input("x")
        b.output(b.mul(x, x), "y")
        ghost = b._new_wire("ghost")
        b.constraints.append(({1: 1}, {0: 1}, {ghost: 1}))
        report = analyze(compile_circuit(b))
        assert "ZK204" in codes(report)


# -- pass 3: redundancy -----------------------------------------------------------


class TestRedundancy:
    def test_tautology_and_duplicate(self):
        b = CircuitBuilder("redundant", FR)
        x = b.private_input("x")
        y = b.mul(x, x)
        b.output(y, "y")
        b.assert_mul(x, x, y)  # duplicate of the square gate
        b.assert_mul(b.constant(6), b.constant(7), b.constant(42))
        report = analyze(compile_circuit(b))
        assert "ZK301" in codes(report)
        assert "ZK302" in codes(report)
        assert not report.has_errors

    def test_unsatisfiable_is_error_not_exception(self):
        b = CircuitBuilder("unsat", FR)
        x = b.private_input("x")
        b.output(b.mul(x, x), "y")
        b.assert_mul(b.constant(2), b.constant(2), b.constant(5))
        report = analyze(compile_circuit(b))  # reported, not raised
        assert "ZK303" in codes(report)
        assert report.has_errors

    def test_dead_wire(self):
        b = CircuitBuilder("deadwire", FR)
        x = b.private_input("x")
        y = b.mul(x, x)
        b.output(y, "y")
        b.mul(x, y)  # allocate a wire...
        b.constraints.pop()  # ...then orphan it
        report = analyze(compile_circuit(b))
        assert "ZK304" in codes(report)


# -- pass 4: cost -----------------------------------------------------------------


class TestCost:
    def test_dense_row(self):
        b = CircuitBuilder("dense", FR)
        xs = [b.private_input(f"x{i}") for i in range(70)]
        acc = b.constant(0)
        for s in xs:
            acc = acc + s
        b.assert_equal(acc, b.constant(12345))
        report = analyze(compile_circuit(b))
        assert "ZK401" in codes(report)
        assert not report.has_errors

    def test_constraint_blowup(self):
        b = CircuitBuilder("blowup", FR)
        x = b.private_input("x")
        acc = b.identity_gate(x)
        for _ in range(63):
            acc = b.mul(x, acc)
        b.output(acc, "y")
        circ = compile_circuit(b)
        assert "ZK402" in codes(analyze(circ, expected_constraints=10))
        assert "ZK402" not in codes(analyze(circ, expected_constraints=64))
        assert "ZK402" not in codes(analyze(circ))

    def test_domain_waste(self):
        b = CircuitBuilder("waste", FR)
        x = b.private_input("x")
        acc = b.identity_gate(x)
        for _ in range(69):  # 70 constraints pad to a 128-point domain
            acc = b.mul(x, acc)
        b.output(acc, "y")
        report = analyze(compile_circuit(b))
        assert "ZK403" in codes(report)
        assert not report.has_errors


# -- compile(check=True) gate -----------------------------------------------------


class TestCompileCheck:
    def test_clean_circuit_compiles(self):
        b = CircuitBuilder("clean", FR)
        x = b.private_input("x")
        b.output(b.mul(x, x), "y")
        compile_circuit(b, check=True)

    def test_buggy_circuit_raises(self):
        b = CircuitBuilder("buggy", FR)
        x = b.private_input("x")
        b.hint(lambda fr, v: [v[0]], [x], 1, label="free")
        b.output(b.mul(x, x), "y")
        with pytest.raises(CircuitAnalysisError, match="ZK202"):
            compile_circuit(b, check=True)

    def test_error_carries_report(self):
        b = CircuitBuilder("buggy2", FR)
        x = b.private_input("x")
        b.output(b.mul(x, x), "y")
        b.assert_mul(b.constant(2), b.constant(2), b.constant(5))
        with pytest.raises(CircuitAnalysisError) as exc:
            compile_circuit(b, check=True)
        assert exc.value.report.has_errors
        assert "ZK303" in exc.value.report.codes()


# -- no false positives on shipped circuits ---------------------------------------


class TestShippedCircuitsClean:
    @pytest.mark.parametrize("curve_name", ["bn128", "bls12_381"])
    def test_all_builtins_error_free(self, curve_name):
        curve = get_curve(curve_name)
        for name, (builder, _inputs, expected) in lint_targets(curve).items():
            report = analyze(compile_circuit(builder),
                             expected_constraints=expected)
            assert not report.has_errors, f"{name}: {report.render()}"

    @pytest.mark.parametrize("curve_name", ["bn128", "bls12_381"])
    def test_builtins_have_no_warnings_either(self, curve_name):
        curve = get_curve(curve_name)
        for name, (builder, _inputs, expected) in lint_targets(curve).items():
            report = analyze(compile_circuit(builder),
                             expected_constraints=expected)
            assert not report.warnings(), f"{name}: {report.render()}"
