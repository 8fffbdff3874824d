"""Gadget-library tests: every gadget satisfied + constraint-count checks."""

import pytest

from repro.circuit import CircuitBuilder, compile_circuit, gadgets
from repro.fields import BN254_FR
from repro.groth16 import generate_witness

FR = BN254_FR


def run(build_fn, inputs):
    """Build, compile, generate witness; return (satisfied, circ, witness)."""
    b = CircuitBuilder("g", FR)
    build_fn(b)
    circ = compile_circuit(b)
    w = generate_witness(circ, inputs)
    return circ.r1cs.is_satisfied(w), circ, w


def out_val(circ, w, name="out"):
    return w[circ.output_wires[name]]


class TestExponentiate:
    @pytest.mark.parametrize("e", [1, 2, 3, 7, 16])
    def test_value_and_constraint_count(self, e):
        def build(b):
            x = b.private_input("x")
            b.output(gadgets.exponentiate(b, x, e), "out")

        ok, circ, w = run(build, {"x": 3})
        assert ok
        assert out_val(circ, w) == pow(3, e, FR.modulus)
        # Fig. 2: constraint count equals the exponent.
        assert circ.n_constraints == e

    def test_invalid_exponent(self):
        b = CircuitBuilder("g", FR)
        x = b.private_input("x")
        with pytest.raises(ValueError):
            gadgets.exponentiate(b, x, 0)


class TestBits:
    def test_num_to_bits_roundtrip(self):
        def build(b):
            x = b.private_input("x")
            bits = gadgets.num_to_bits(b, x, 8)
            acc = b.constant(0)
            for i, bit in enumerate(bits):
                acc = acc + bit.scale(1 << i)
            b.output(acc, "out")

        ok, circ, w = run(build, {"x": 0b10110101})
        assert ok
        assert out_val(circ, w) == 0b10110101

    def test_bit_wires_are_boolean(self):
        def build(b):
            x = b.private_input("x")
            bits = gadgets.num_to_bits(b, x, 4)
            for i, bit in enumerate(bits):
                b.output(bit, f"b{i}")

        ok, circ, w = run(build, {"x": 0b1010})
        assert ok
        for i, expected in enumerate([0, 1, 0, 1]):
            assert w[circ.output_wires[f"b{i}"]] == expected

    def test_overflowing_value_unsatisfiable(self):
        def build(b):
            x = b.private_input("x")
            gadgets.num_to_bits(b, x, 4)

        ok, _, _ = run(build, {"x": 16})  # needs 5 bits
        assert not ok

    def test_assert_boolean(self):
        def build(b):
            s = b.private_input("s")
            gadgets.assert_boolean(b, s)

        assert run(build, {"s": 0})[0]
        assert run(build, {"s": 1})[0]
        assert not run(build, {"s": 2})[0]


class TestComparators:
    @pytest.mark.parametrize("x,expected", [(0, 1), (5, 0)])
    def test_is_zero(self, x, expected):
        def build(b):
            s = b.private_input("s")
            b.output(gadgets.is_zero(b, s), "out")

        ok, circ, w = run(build, {"s": x})
        assert ok
        assert out_val(circ, w) == expected

    @pytest.mark.parametrize("a,b_,expected", [(4, 4, 1), (4, 5, 0)])
    def test_is_equal(self, a, b_, expected):
        def build(b):
            s = b.private_input("a")
            t = b.private_input("b")
            b.output(gadgets.is_equal(b, s, t), "out")

        ok, circ, w = run(build, {"a": a, "b": b_})
        assert ok
        assert out_val(circ, w) == expected

    @pytest.mark.parametrize(
        "a,b_,expected",
        [(3, 7, 1), (7, 3, 0), (5, 5, 0), (0, 1, 1), (255, 255, 0), (0, 255, 1)],
    )
    def test_less_than(self, a, b_, expected):
        def build(b):
            s = b.private_input("a")
            t = b.private_input("b")
            b.output(gadgets.less_than(b, s, t, 8), "out")

        ok, circ, w = run(build, {"a": a, "b": b_})
        assert ok
        assert out_val(circ, w) == expected


class TestBooleanAlgebra:
    @pytest.mark.parametrize("x", [0, 1])
    @pytest.mark.parametrize("y", [0, 1])
    def test_truth_tables(self, x, y):
        def build(b):
            s = b.private_input("x")
            t = b.private_input("y")
            b.output(gadgets.logical_and(b, s, t), "and")
            b.output(gadgets.logical_or(b, s, t), "or")
            b.output(gadgets.logical_xor(b, s, t), "xor")
            b.output(gadgets.logical_not(b, s), "not")

        ok, circ, w = run(build, {"x": x, "y": y})
        assert ok
        assert w[circ.output_wires["and"]] == (x & y)
        assert w[circ.output_wires["or"]] == (x | y)
        assert w[circ.output_wires["xor"]] == (x ^ y)
        assert w[circ.output_wires["not"]] == (1 - x)

    @pytest.mark.parametrize("sel,expected", [(1, 11), (0, 22)])
    def test_mux(self, sel, expected):
        def build(b):
            s = b.private_input("s")
            gadgets.assert_boolean(b, s)
            b.output(gadgets.mux(b, s, b.constant(11), b.constant(22)), "out")

        ok, circ, w = run(build, {"s": sel})
        assert ok
        assert out_val(circ, w) == expected


class TestMiMC:
    def test_permutation_deterministic(self):
        def build(b):
            x = b.private_input("x")
            b.output(gadgets.mimc_permutation(b, x, b.constant(0)), "out")

        ok1, c1, w1 = run(build, {"x": 5})
        ok2, c2, w2 = run(build, {"x": 5})
        assert ok1 and ok2
        assert out_val(c1, w1) == out_val(c2, w2)

    def test_permutation_input_sensitivity(self):
        def build(b):
            x = b.private_input("x")
            b.output(gadgets.mimc_permutation(b, x, b.constant(0)), "out")

        _, c1, w1 = run(build, {"x": 5})
        _, c2, w2 = run(build, {"x": 6})
        assert out_val(c1, w1) != out_val(c2, w2)

    def test_key_sensitivity(self):
        def build_k(k):
            def build(b):
                x = b.private_input("x")
                b.output(gadgets.mimc_permutation(b, x, b.constant(k)), "out")
            return build

        _, c1, w1 = run(build_k(0), {"x": 5})
        _, c2, w2 = run(build_k(1), {"x": 5})
        assert out_val(c1, w1) != out_val(c2, w2)

    def test_rounds_cost_two_constraints_each(self):
        b = CircuitBuilder("g", FR)
        x = b.private_input("x")
        gadgets.mimc_permutation(b, x, b.constant(0), n_rounds=10)
        assert len(b.constraints) == 20

    def test_hash_chain(self):
        def build(b):
            xs = [b.private_input(f"m{i}") for i in range(3)]
            b.output(gadgets.mimc_hash_chain(b, xs), "out")

        ok, c1, w1 = run(build, {"m0": 1, "m1": 2, "m2": 3})
        assert ok
        _, c2, w2 = run(build, {"m0": 1, "m1": 2, "m2": 4})
        assert out_val(c1, w1) != out_val(c2, w2)


class TestDivision:
    def test_assert_nonzero_accepts(self):
        def build(b):
            x = b.private_input("x")
            gadgets.assert_nonzero(b, x)

        assert run(build, {"x": 5})[0]
        assert not run(build, {"x": 0})[0]

    def test_divide_value(self):
        def build(b):
            n = b.private_input("n")
            d = b.private_input("d")
            b.output(gadgets.divide(b, n, d), "out")

        ok, circ, w = run(build, {"n": 84, "d": 2})
        assert ok
        assert out_val(circ, w) == 42

    def test_divide_inexact_field_semantics(self):
        # 1/3 exists in the field and q * 3 == 1 holds.
        def build(b):
            n = b.private_input("n")
            d = b.private_input("d")
            b.output(gadgets.divide(b, n, d), "out")

        ok, circ, w = run(build, {"n": 1, "d": 3})
        assert ok
        assert out_val(circ, w) * 3 % FR.modulus == 1

    def test_divide_by_zero_unsatisfiable(self):
        def build(b):
            n = b.private_input("n")
            d = b.private_input("d")
            gadgets.divide(b, n, d)

        assert not run(build, {"n": 7, "d": 0})[0]


class TestSelect:
    @pytest.mark.parametrize("idx", [0, 1, 2, 3])
    def test_lookup(self, idx):
        def build(b):
            i = b.private_input("i")
            options = [b.constant(v) for v in (10, 20, 30, 40)]
            b.output(gadgets.select(b, i, options), "out")

        ok, circ, w = run(build, {"i": idx})
        assert ok
        assert out_val(circ, w) == (idx + 1) * 10

    def test_out_of_range_unsatisfiable(self):
        def build(b):
            i = b.private_input("i")
            b.output(gadgets.select(b, i, [b.constant(1), b.constant(2)]), "out")

        assert not run(build, {"i": 5})[0]

    def test_signal_options(self):
        def build(b):
            i = b.private_input("i")
            x = b.private_input("x")
            b.output(gadgets.select(b, i, [x, x * x]), "out")

        ok, circ, w = run(build, {"i": 1, "x": 7})
        assert ok
        assert out_val(circ, w) == 49

    def test_empty_options_rejected(self):
        b = CircuitBuilder("g", FR)
        i = b.private_input("i")
        with pytest.raises(ValueError):
            gadgets.select(b, i, [])


class TestDotProduct:
    def test_value(self):
        def build(b):
            xs = [b.private_input(f"x{i}") for i in range(3)]
            ys = [b.public_input(f"y{i}") for i in range(3)]
            b.output(gadgets.dot_product(b, xs, ys), "out")

        inputs = {"x0": 1, "x1": 2, "x2": 3, "y0": 4, "y1": 5, "y2": 6}
        ok, circ, w = run(build, inputs)
        assert ok
        assert out_val(circ, w) == 32

    def test_length_mismatch(self):
        b = CircuitBuilder("g", FR)
        xs = [b.private_input("x0")]
        with pytest.raises(ValueError):
            gadgets.dot_product(b, xs, [])
