"""End-to-end PLONK tests: the R1CS lowering, completeness, soundness."""

import random

import pytest

from repro.circuit import CircuitBuilder, compile_circuit, gadgets
from repro.curves import BLS12_381, BN128
from repro.groth16 import generate_witness, public_inputs
from repro.perf.trace import Tracer, tracing
from repro.plonk import SRS, plonk_prove, plonk_setup, plonk_verify
from repro.plonk.circuit import compile_plonk
from repro.plonk.prover import PlonkProof
from repro.plonk.setup import build_permutation, to_coset
from tests.conftest import UNREDUCED, unreduced


def cubic_circuit(fr):
    """y = x^3 + x + 5 with public output y, private x."""
    b = CircuitBuilder("cubic", fr)
    x = b.private_input("x")
    b.output(x * x * x + x + 5, "y")
    return compile_circuit(b)


def table(compiled):
    """The gate rows as ``(ql, qr, qo, qm, qc, a, b, c)`` tuples."""
    sel = compiled.selectors
    return list(zip(sel["ql"], sel["qr"], sel["qo"], sel["qm"], sel["qc"],
                    *compiled.wires))


@pytest.fixture(scope="module", params=["bn128", "bls12_381"])
def session(request):
    curve = BN128 if request.param == "bn128" else BLS12_381
    circuit = cubic_circuit(curve.fr)
    rng = random.Random(5)
    pre = plonk_setup(curve, circuit, rng)
    witness = generate_witness(circuit, {"x": 3})
    proof = plonk_prove(pre, witness, rng)
    return curve, circuit, pre, witness, proof


class TestLowering:
    @pytest.mark.parametrize("k", [1, 3, 7, 20])
    def test_exponentiate_is_one_gate_per_constraint(self, k):
        b = CircuitBuilder("pow", BN128.fr)
        b.output(gadgets.exponentiate(b, b.private_input("x"), k), "y")
        compiled = compile_plonk(compile_circuit(b))
        live = [row for row in table(compiled) if any(row[:5])]
        # k constraints plus the one public row; no helper is needed.
        assert len(live) == k + 1 and not compiled.additions
        assert table(compiled)[:k + 1] == live
        assert compiled.n == max(2, 1 << k.bit_length())

    def lowered(self, build):
        """Lower a one-constraint circuit over private x, y, z, w."""
        b = CircuitBuilder("one", BN128.fr)
        ins = [b.private_input(name) for name in "xyzw"]
        build(b, *ins)
        compiled = compile_plonk(compile_circuit(b))
        return compiled, table(compiled)[:len(b.constraints) + len(compiled.additions)]

    def test_constants_fold_into_the_selectors(self):
        r = BN128.fr.modulus
        # (x + 3) * 2 == y: wire 0 and the constants fold into qL and qC.
        compiled, rows = self.lowered(
            lambda b, x, y, z, w: b.assert_mul(x + 3, b.constant(2), y))
        assert rows == [(2, 0, r - 1, 0, 6, 1, 0, 2)]
        assert not compiled.additions

    def test_a_scaled_product_scales_qm(self):
        r = BN128.fr.modulus
        _, rows = self.lowered(
            lambda b, x, y, z, w: b.assert_mul(x * 5, y, z + 7))
        assert rows == [(0, 0, r - 1, 5, r - 7, 1, 2, 3)]

    def test_a_four_term_combination_folds_through_three_helpers(self):
        # x + 2y + 3z + 4w == 9: three helper add gates, then the gate.
        r = BN128.fr.modulus
        compiled, rows = self.lowered(
            lambda b, x, y, z, w: b.assert_equal(x + y * 2 + z * 3 + w * 4,
                                                 b.constant(9)))
        h0, h1, h2 = 5, 6, 7  # helpers are numbered from n_wires up
        assert compiled.n_wires == 5
        assert compiled.additions == [(1, 1, 2, 2), (h0, 1, 3, 3), (h1, 1, 4, 4)]
        assert rows == [
            (1, 2, r - 1, 0, 0, 1, 2, h0),
            (1, 3, r - 1, 0, 0, h0, 3, h1),
            (1, 4, r - 1, 0, 0, h1, 4, h2),
            (1, 0, 0, 0, r - 9, h2, 0, 0),
        ]
        values = compiled.assignment([1, 2, 2, 1, 0])
        assert values[h0:] == [6, 9, 9]
        assert compiled.check(values) is None

    def test_check_accepts_the_witness_and_flags_a_mutated_wire(self, session):
        curve, circuit, pre, witness, _ = session
        compiled = pre.compiled
        assert compiled.check(compiled.assignment(witness)) is None
        x = circuit.input_wires["x"]
        bad = list(witness)
        bad[x] = (bad[x] + 1) % curve.fr.modulus
        assert compiled.check(compiled.assignment(bad)) is not None

    def test_assignment_rejects_a_witness_of_the_wrong_length(self, session):
        _, _, pre, witness, _ = session
        with pytest.raises(ValueError, match="witness length"):
            pre.compiled.assignment(witness[:-1])

    def test_lowering_is_deterministic(self, session):
        _, circuit, pre, _, _ = session
        assert compile_plonk(circuit) == pre.compiled


class TestPermutation:
    def test_sigma_is_a_permutation_of_labels(self, session):
        curve, _, pre, *_ = session
        fr = curve.fr
        sigma = build_permutation(pre.compiled, pre.domain, pre.k1, pre.k2)
        ks = (1, pre.k1, pre.k2)
        omegas = pre.domain.elements()
        identity = sorted(
            fr.mul(ks[col], omegas[row])
            for col in range(3) for row in range(pre.n)
        )
        image = sorted(v for col in sigma for v in col)
        assert identity == image

    def test_coset_constants_disjoint(self, session):
        curve, _, pre, *_ = session
        fr = curve.fr
        n = pre.n
        assert pow(pre.k1, n, fr.modulus) != 1
        assert pow(pre.k2, n, fr.modulus) != 1
        ratio = pre.k2 * pow(pre.k1, -1, fr.modulus) % fr.modulus
        assert pow(ratio, n, fr.modulus) != 1


class TestSetup:
    def test_circuit_cosets_are_preprocessed(self, session):
        curve, _, pre, *_ = session
        assert pre.coset.size == 4 * pre.n
        for name, poly in pre.selector_polys.items():
            assert pre.selector_cosets[name] == to_coset(curve.fr, poly, pre.coset)
        for poly, evals in zip(pre.sigma_polys, pre.sigma_cosets):
            assert evals == to_coset(curve.fr, poly, pre.coset)

    def test_srs_sized_for_the_split_quotient(self, session):
        curve, circuit, pre, witness, _ = session
        srs = pre.kzg.srs
        assert srs.size == pre.n + 8

        def cut(size):
            return SRS(curve, srs.g1_powers[:size], srs.g2_gen, srs.g2_tau)

        with pytest.raises(ValueError, match="too small"):
            plonk_setup(curve, circuit, random.Random(1), srs=cut(pre.n + 5))
        tight = plonk_setup(curve, circuit, random.Random(1), srs=cut(pre.n + 6))
        proof = plonk_prove(tight, witness, random.Random(2))
        assert plonk_verify(tight, proof, public_inputs(circuit, witness))


class TestCompleteness:
    def test_honest_proof_verifies(self, session):
        _, circuit, pre, witness, proof = session
        assert plonk_verify(pre, proof, public_inputs(circuit, witness))

    def test_other_witness_same_circuit(self, session):
        curve, circuit, pre, _, _ = session
        witness = generate_witness(circuit, {"x": 7})
        proof = plonk_prove(pre, witness, random.Random(8))
        assert public_inputs(circuit, witness) == [7**3 + 7 + 5]
        assert plonk_verify(pre, proof, [7**3 + 7 + 5])

    def test_proofs_are_randomized(self, session):
        _, circuit, pre, witness, proof = session
        proof2 = plonk_prove(pre, witness, random.Random(999))
        assert proof2.commit_a != proof.commit_a  # blinding differs
        assert proof2.commit_t_lo != proof.commit_t_lo
        assert plonk_verify(pre, proof2, public_inputs(circuit, witness))

    def test_traced_prove_opens_one_region_a_round(self, session):
        _, _, pre, witness, _ = session
        n = pre.n
        plain = plonk_prove(pre, witness, random.Random(9))
        tracer = Tracer()
        with tracing(tracer):
            traced = plonk_prove(pre, witness, random.Random(9))
        assert traced == plain
        regions = {r.name: r for r in tracer.iter_regions()}
        assert {name: (r.parallel, r.items) for name, r in regions.items()
                if name.startswith("plonk_")} == {
            "plonk_wires": (True, 3 * n),
            "plonk_grand_product": (False, 1),
            # the quotient's coset: the smallest power of two above 3n + 5
            "plonk_quotient": (True, 4 * n),
            "plonk_openings": (True, 2),
        }


class TestSoundness:
    def test_wrong_public_rejected(self, session):
        curve, circuit, pre, witness, proof = session
        y = public_inputs(circuit, witness)[0]
        assert not plonk_verify(pre, proof, [(y + 1) % curve.fr.modulus])

    def test_unsatisfying_assignment_cannot_prove(self, session):
        curve, circuit, pre, witness, _ = session
        bad = list(witness)
        y = circuit.output_wires["y"]
        bad[y] = (bad[y] + 1) % curve.fr.modulus
        with pytest.raises((ValueError, ArithmeticError)):
            plonk_prove(pre, bad, random.Random(3))

    @pytest.mark.parametrize("field_name", [
        "commit_a", "commit_z", "commit_t_lo", "commit_t_mid", "commit_t_hi",
        "witness_zeta",
    ])
    def test_tampered_commitment_rejected(self, session, field_name):
        curve, circuit, pre, witness, proof = session
        g = curve.g1.generator
        tampered = PlonkProof(**vars(proof))
        setattr(tampered, field_name, getattr(proof, field_name) + g)
        assert not plonk_verify(pre, tampered, public_inputs(circuit, witness))

    @pytest.mark.parametrize("eval_name", ["a", "z", "t", "z_omega", "s1"])
    def test_tampered_evaluation_rejected(self, session, eval_name):
        curve, circuit, pre, witness, proof = session
        evals = dict(proof.evals)
        evals[eval_name] = (evals[eval_name] + 1) % curve.fr.modulus
        tampered = PlonkProof(**{**vars(proof), "evals": evals})
        assert not plonk_verify(pre, tampered, public_inputs(circuit, witness))

    def test_public_arity_enforced(self, session):
        _, _, pre, _, proof = session
        with pytest.raises(ValueError):
            plonk_verify(pre, proof, [])

    @pytest.mark.parametrize("how", UNREDUCED)
    def test_unreduced_public_raises(self, session, how):
        curve, circuit, pre, witness, proof = session
        publics = public_inputs(circuit, witness)
        with pytest.raises(ValueError, match="not a reduced"):
            plonk_verify(pre, proof,
                         unreduced(publics, curve.fr.modulus, how))
        assert plonk_verify(pre, proof, publics)


class TestCopyConstraints:
    def test_copy_constraint_violation_unprovable(self, monkeypatch):
        """Wire values that satisfy every gate but break a copy constraint
        (``x`` sits in both slots of ``x * x``) cannot be proved."""
        b = CircuitBuilder("square", BN128.fr)
        x = b.private_input("x")
        b.output(x * x, "s")
        circuit = compile_circuit(b)
        pre = plonk_setup(BN128, circuit, random.Random(11))
        witness = generate_witness(circuit, {"x": 4})
        values = pre.compiled.assignment(witness)
        wa, wb, wc = pre.compiled.wire_values(values)
        row = pre.compiled.n_public  # the x * x gate
        assert (wa[row], wb[row], wc[row]) == (4, 4, 16)
        wa[row], wb[row] = 2, 8  # 2 * 8 == 16: the gate alone still holds
        monkeypatch.setattr(pre.compiled, "wire_values", lambda _: (wa, wb, wc))
        assert pre.compiled.check(values) is None
        with pytest.raises(ArithmeticError, match="quotient degree overflow"):
            plonk_prove(pre, witness, random.Random(12))

    def test_universal_srs_shared_between_circuits(self):
        curve = BN128
        rng = random.Random(12)
        pre1 = plonk_setup(curve, cubic_circuit(curve.fr), rng)
        # Re-use pre1's SRS for an unrelated circuit.
        b = CircuitBuilder("square", curve.fr)
        q = b.private_input("q")
        b.output(q * q, "p")
        circuit = compile_circuit(b)
        pre2 = plonk_setup(curve, circuit, rng, srs=pre1.kzg.srs)
        proof = plonk_prove(pre2, generate_witness(circuit, {"q": 6}), rng)
        assert plonk_verify(pre2, proof, [36])
