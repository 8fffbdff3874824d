"""Every single-field mutation of a proof, a verifying key or the public
inputs is rejected — by the untraced verifier (prepared key, one shared
Miller loop), by the folded batch check, by its bisection — and every
verdict is the textbook four-pairing check's (``tests/oracle.py``) and the
traced batch check's (docs/KERNELS.md, "Prepared G2 points and the
shared-squaring loop").
"""

import dataclasses
import random

import pytest

from repro.curves import BLS12_381, BN128
from repro.groth16 import generate_witness, prove, public_inputs, setup, verify
from repro.groth16.batch import batch_verify
from repro.groth16.serialize import vk_from_bytes, vk_to_bytes
from repro.resilience.degrade import batch_verify_bisect
from tests.conftest import UNREDUCED, make_pow_circuit, unreduced
from tests.oracle import groth16_verify, reference

CURVES = {"bn128": BN128, "bls12_381": BLS12_381}


@pytest.fixture(scope="module", params=sorted(CURVES))
def session(request):
    """``(curve, vk, proof, other proof, publics)``, built once per curve."""
    curve = CURVES[request.param]
    circuit, inputs = make_pow_circuit(curve, 4)
    rng = random.Random(f"soundness:{curve.name}")
    pk, vk = setup(curve, circuit, rng)
    witness = generate_witness(circuit, inputs)
    proofs = [prove(pk, circuit, witness, rng) for _ in range(2)]
    return (curve, vk, *proofs, public_inputs(circuit, witness))


#: how -> the replacement for field *f* of *proof* (*other*: a second valid proof).
PROOF_MUTATIONS = {
    "negated": lambda curve, proof, other, f: -getattr(proof, f),
    "swapped": lambda curve, proof, other, f: getattr(other, f),
    "generator": lambda curve, proof, other, f: (
        curve.g2 if f == "b" else curve.g1).generator,
}
#: ``ic`` has one entry for wire 0 and one per public input.
VK_MUTATIONS = ["alpha1", "beta2", "gamma2", "delta2", "ic0", "ic1"]


def mutated_vk(vk, which):
    """*vk* with one point moved by the generator of its group."""
    if which.startswith("ic"):
        k = int(which[2:])
        ic = list(vk.ic)
        ic[k] = ic[k] + vk.curve.g1.generator
        return dataclasses.replace(vk, ic=ic)
    point = getattr(vk, which)
    return dataclasses.replace(vk, **{which: point + point.group.generator})


def assert_rejected_everywhere(vk, good, bad, seed):
    """*bad* = ``(proof, publics)`` fails alone, poisons a batch of 8 from
    index 3, is the one index bisection names, and the textbook check
    agrees; *good* is what fills the rest of the batch."""
    assert verify(vk, *bad) is False
    assert groth16_verify(vk, *bad) is False
    assert batch_verify(vk, [bad], random.Random(seed)) is False
    batch = [good] * 3 + [bad] + [good] * 4
    assert batch_verify(vk, batch, random.Random(seed)) is False
    assert batch_verify_bisect(vk, batch, random.Random(seed)) == (False, [3])


class TestSingleFieldMutations:
    def test_the_honest_inputs_are_accepted(self, session):
        _, vk, proof, other, publics = session
        batch = [(proof, publics), (other, publics)] * 4
        assert verify(vk, proof, publics) is groth16_verify(vk, proof, publics) is True
        assert batch_verify(vk, batch, random.Random(1)) is True
        assert reference(batch_verify, vk, batch[:2], random.Random(1)) is True
        assert batch_verify_bisect(vk, batch, random.Random(1)) == (True, [])

    @pytest.mark.parametrize("field", ["a", "b", "c"])
    @pytest.mark.parametrize("how", sorted(PROOF_MUTATIONS))
    def test_proof(self, session, field, how):
        curve, vk, proof, other, publics = session
        bad = dataclasses.replace(
            proof, **{field: PROOF_MUTATIONS[how](curve, proof, other, field)})
        assert getattr(bad, field) != getattr(proof, field)
        assert_rejected_everywhere(vk, (other, publics), (bad, publics), field + how)

    def test_publics(self, session):
        curve, vk, proof, other, publics = session
        for k in range(len(publics)):
            bad = list(publics)
            bad[k] = (bad[k] + 1) % curve.fr.modulus
            assert_rejected_everywhere(vk, (other, publics), (proof, bad), k)
        for wrong_arity in (publics + [1], publics[:-1]):
            with pytest.raises(ValueError, match="public inputs, got"):
                verify(vk, proof, wrong_arity)
            with pytest.raises(ValueError, match="public inputs, got"):
                batch_verify(vk, [(proof, wrong_arity)], random.Random(0))

    @pytest.mark.parametrize("how", UNREDUCED)
    def test_unreduced_publics_raise_in_verify(self, session, how):
        """``x + r`` is not ``x``: the verifier rejects what it used to
        reduce into an accepted alias."""
        curve, vk, proof, _, publics = session
        bad = unreduced(publics, curve.fr.modulus, how)
        with pytest.raises(ValueError, match="not a reduced"):
            verify(vk, proof, bad)
        assert verify(vk, proof, publics) is True

    @pytest.mark.parametrize("how", UNREDUCED)
    def test_unreduced_publics_raise_in_batch_verify(self, session, how):
        curve, vk, proof, other, publics = session
        bad = unreduced(publics, curve.fr.modulus, how)
        batch = [(other, publics), (proof, bad)]
        with pytest.raises(ValueError, match="not a reduced"):
            batch_verify(vk, batch, random.Random(0))
        assert batch_verify(vk, batch[:1], random.Random(0)) is True

    @pytest.mark.parametrize("which", VK_MUTATIONS)
    def test_verifying_key(self, session, which):
        _, vk, proof, other, publics = session
        assert len(vk.ic) == 2
        bad_vk = mutated_vk(vk, which)
        assert bad_vk != vk
        # The key is shared: every member of a batch under it is bad.
        batch = [(proof, publics), (other, publics)]
        assert verify(bad_vk, proof, publics) is False
        assert groth16_verify(bad_vk, proof, publics) is False
        assert batch_verify(bad_vk, batch[:1], random.Random(which)) is False
        assert reference(batch_verify, bad_vk, batch, random.Random(which)) is False
        assert batch_verify_bisect(bad_vk, batch, random.Random(which)) == (False, [0, 1])


class TestThePreparedFormBelongsToItsKey:
    def test_replace_starts_without_it_and_builds_its_own(self, session):
        _, vk, proof, _, publics = session
        assert verify(vk, proof, publics) is True
        fresh = dataclasses.replace(vk, gamma2=vk.gamma2.double())
        assert "prepared" in vars(vk) and "prepared" not in vars(fresh)
        assert verify(fresh, proof, publics) is False
        assert fresh.prepared.gamma2.point == fresh.gamma2.to_affine()
        assert fresh.prepared.gamma2.point != vk.prepared.gamma2.point
        assert fresh.prepared.alpha_beta == vk.prepared.alpha_beta
        assert verify(vk, proof, publics) is True

    def test_fields_are_frozen(self, session):
        _, vk, _, _, _ = session
        for field in dataclasses.fields(vk):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(vk, field.name, getattr(vk, field.name))
        assert [f.name for f in dataclasses.fields(vk)] == [
            "curve", "alpha1", "beta2", "gamma2", "delta2", "ic", "public_wires"]

    def test_it_is_neither_compared_printed_nor_serialised(self, session):
        _, vk, _, _, _ = session
        blob = vk_to_bytes(vk)
        cold = vk_from_bytes(blob)
        assert "prepared" not in vars(cold)
        vk.prepared
        assert cold == vk and repr(cold) == repr(vk)
        assert vk_to_bytes(vk) == blob == vk_to_bytes(cold)
