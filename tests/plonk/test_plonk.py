"""End-to-end PLONK tests: completeness, soundness, circuit machinery."""

import random

import pytest

from repro.curves import BLS12_381, BN128
from repro.perf.trace import Tracer, tracing
from repro.plonk import PlonkCircuit, plonk_prove, plonk_setup, plonk_verify
from repro.plonk.circuit import compile_plonk
from repro.plonk.prover import PlonkProof
from repro.plonk.setup import build_permutation


def cubic_circuit(fr):
    """y = x^3 + x + 5 with public y, private x."""
    circ = PlonkCircuit(fr)
    y = circ.public_input()
    x = circ.new_var()
    x2 = circ.mul_gate(x, x)
    x3 = circ.mul_gate(x2, x)
    s = circ.add_gate(x3, x)
    five = circ.constant_gate(5)
    out = circ.add_gate(s, five)
    circ.assert_equal(out, y)
    return circ, x, y


@pytest.fixture(scope="module", params=["bn128", "bls12_381"])
def session(request):
    curve = BN128 if request.param == "bn128" else BLS12_381
    fr = curve.fr
    circ, x, y = cubic_circuit(fr)
    compiled = compile_plonk(circ)
    rng = random.Random(5)
    pre = plonk_setup(curve, compiled, rng)
    y_val = (3**3 + 3 + 5) % fr.modulus
    values = circ.full_assignment({x: 3, y: y_val})
    proof = plonk_prove(pre, values, rng)
    return curve, circ, compiled, pre, values, proof, x, y


class TestCircuitBuilder:
    def test_gate_count_and_padding(self, session):
        _, circ, compiled, *_ = session
        # 1 public row + 6 circuit gates -> padded to 8.
        assert compiled.n == 8
        assert compiled.n_public == 1

    def test_check_accepts_valid_assignment(self, session):
        _, circ, _, _, values, *_ = session
        assert circ.check(values) is None

    def test_check_flags_bad_assignment(self, session):
        curve, circ, _, _, values, _, x, y = session
        bad = list(values)
        bad[x] = (bad[x] + 1) % curve.fr.modulus
        assert circ.check(bad) is not None

    def test_unknown_variable_rejected(self):
        circ = PlonkCircuit(BN128.fr)
        with pytest.raises(ValueError, match="unknown variable"):
            circ.custom_gate(1, 0, 0, 0, 0, 5, 0, 0)

    def test_full_assignment_requires_free_vars(self, session):
        _, circ, _, _, _, _, x, y = session
        with pytest.raises(ValueError):
            circ.full_assignment({y: 1})  # x unassigned

    def test_boolean_gate(self):
        circ = PlonkCircuit(BN128.fr)
        a = circ.new_var()
        circ.boolean_gate(a)
        assert circ.check(circ.full_assignment({a: 1})) is None
        assert circ.check(circ.full_assignment({a: 0})) is None
        assert circ.check(circ.full_assignment({a: 2})) is not None


class TestPermutation:
    def test_sigma_is_a_permutation_of_labels(self, session):
        curve, _, compiled, pre, *_ = session
        fr = curve.fr
        sigma = build_permutation(compiled, pre.domain, pre.k1, pre.k2)
        ks = (1, pre.k1, pre.k2)
        omegas = pre.domain.elements()
        identity = sorted(
            fr.mul(ks[col], omegas[row])
            for col in range(3) for row in range(compiled.n)
        )
        image = sorted(v for col in sigma for v in col)
        assert identity == image

    def test_coset_constants_disjoint(self, session):
        curve, _, compiled, pre, *_ = session
        fr = curve.fr
        n = compiled.n
        assert pow(pre.k1, n, fr.modulus) != 1
        assert pow(pre.k2, n, fr.modulus) != 1
        ratio = pre.k2 * pow(pre.k1, -1, fr.modulus) % fr.modulus
        assert pow(ratio, n, fr.modulus) != 1


class TestCompleteness:
    def test_honest_proof_verifies(self, session):
        _, _, _, pre, values, proof, _, y = session
        assert plonk_verify(pre, proof, [values[y]])

    def test_other_witness_same_circuit(self, session):
        curve, circ, _, pre, _, _, x, y = session
        fr = curve.fr
        y_val = (7**3 + 7 + 5) % fr.modulus
        values = circ.full_assignment({x: 7, y: y_val})
        proof = plonk_prove(pre, values, random.Random(8))
        assert plonk_verify(pre, proof, [y_val])

    def test_proofs_are_randomized(self, session):
        _, _, _, pre, values, proof, _, y = session
        proof2 = plonk_prove(pre, values, random.Random(999))
        assert proof2.commit_a != proof.commit_a  # blinding differs
        assert plonk_verify(pre, proof2, [values[y]])

    def test_traced_prove_opens_one_region_a_round(self, session):
        _, _, compiled, pre, values, _, _, _ = session
        n = compiled.n
        plain = plonk_prove(pre, values, random.Random(9))
        tracer = Tracer()
        with tracing(tracer):
            traced = plonk_prove(pre, values, random.Random(9))
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
        curve, _, _, pre, values, proof, _, y = session
        wrong = (values[y] + 1) % curve.fr.modulus
        assert not plonk_verify(pre, proof, [wrong])

    def test_unsatisfying_assignment_cannot_prove(self, session):
        curve, circ, _, pre, values, _, x, y = session
        bad = list(values)
        bad[y] = (bad[y] + 1) % curve.fr.modulus
        with pytest.raises((ValueError, ArithmeticError)):
            plonk_prove(pre, bad, random.Random(3))

    @pytest.mark.parametrize("field_name", [
        "commit_a", "commit_z", "commit_t", "witness_zeta",
    ])
    def test_tampered_commitment_rejected(self, session, field_name):
        curve, _, _, pre, values, proof, _, y = session
        g = curve.g1.generator
        tampered = PlonkProof(
            commit_a=proof.commit_a, commit_b=proof.commit_b,
            commit_c=proof.commit_c, commit_z=proof.commit_z,
            commit_t=proof.commit_t, evals=dict(proof.evals),
            witness_zeta=proof.witness_zeta,
            witness_zeta_omega=proof.witness_zeta_omega,
        )
        setattr(tampered, field_name, getattr(proof, field_name) + g)
        assert not plonk_verify(pre, tampered, [values[y]])

    @pytest.mark.parametrize("eval_name", ["a", "z", "t", "z_omega", "s1"])
    def test_tampered_evaluation_rejected(self, session, eval_name):
        curve, _, _, pre, values, proof, _, y = session
        evals = dict(proof.evals)
        evals[eval_name] = (evals[eval_name] + 1) % curve.fr.modulus
        tampered = PlonkProof(
            commit_a=proof.commit_a, commit_b=proof.commit_b,
            commit_c=proof.commit_c, commit_z=proof.commit_z,
            commit_t=proof.commit_t, evals=evals,
            witness_zeta=proof.witness_zeta,
            witness_zeta_omega=proof.witness_zeta_omega,
        )
        assert not plonk_verify(pre, tampered, [values[y]])

    def test_public_arity_enforced(self, session):
        _, _, _, pre, values, proof, _, y = session
        with pytest.raises(ValueError):
            plonk_verify(pre, proof, [])


class TestCopyConstraints:
    def test_copy_constraint_violation_unprovable(self):
        """Equality enforced only via the permutation must hold."""
        curve = BN128
        fr = curve.fr
        circ = PlonkCircuit(fr)
        a = circ.new_var()
        # Two gates both referencing variable a: a*a = b and a + a = c.
        circ.mul_gate(a, a)
        c = circ.add_gate(a, a)
        out = circ.public_input()
        circ.assert_equal(c, out)
        compiled = compile_plonk(circ)
        rng = random.Random(11)
        pre = plonk_setup(curve, compiled, rng)
        values = circ.full_assignment({a: 5, out: 10})
        proof = plonk_prove(pre, values, rng)
        assert plonk_verify(pre, proof, [10])

    def test_universal_srs_shared_between_circuits(self):
        curve = BN128
        rng = random.Random(12)
        circ1, x1, y1 = cubic_circuit(curve.fr)
        c1 = compile_plonk(circ1)
        pre1 = plonk_setup(curve, c1, rng)
        # Re-use pre1's SRS for an unrelated circuit.
        circ2 = PlonkCircuit(curve.fr)
        p = circ2.public_input()
        q = circ2.new_var()
        circ2.assert_equal(circ2.mul_gate(q, q), p)
        c2 = compile_plonk(circ2)
        pre2 = plonk_setup(curve, c2, rng, srs=pre1.kzg.srs)
        vals = circ2.full_assignment({q: 6, p: 36})
        proof = plonk_prove(pre2, vals, rng)
        assert plonk_verify(pre2, proof, [36])
