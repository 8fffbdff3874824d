"""Corruption handling for vk/pk blobs: fuzz, truncation, subgroup checks.

Complements ``test_serialize_fuzz.py`` (which fuzzes proofs): verifying
and proving keys must also fail loudly — with
:class:`~repro.resilience.errors.ArtifactCorruption` naming expected vs
actual — and on-curve-but-out-of-subgroup points must be rejected, not
just off-curve ones.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.curves import BLS12_381, BN128
from repro.groth16 import generate_witness, prove, setup
from repro.groth16.serialize import (
    pk_from_bytes,
    pk_to_bytes,
    proof_from_bytes,
    proof_to_bytes,
    vk_from_bytes,
    vk_to_bytes,
)
from repro.resilience.errors import ArtifactCorruption
from tests.conftest import make_pow_circuit
from tests.oracle import cofactor_points, rogue_g1_point


@pytest.fixture(scope="module")
def keys():
    circ, inputs = make_pow_circuit(BN128, 4)
    pk, vk = setup(BN128, circ, random.Random(51))
    return pk, vk


@pytest.fixture(scope="module")
def encoded(keys):
    pk, vk = keys
    return pk_to_bytes(pk), vk_to_bytes(vk)


class TestVkFuzz:
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_byte_flips_never_silently_accepted(self, encoded, data):
        _, vk_blob = encoded
        pos = data.draw(st.integers(min_value=0, max_value=len(vk_blob) - 1))
        bit = data.draw(st.integers(min_value=0, max_value=7))
        corrupted = bytearray(vk_blob)
        corrupted[pos] ^= 1 << bit
        try:
            back = vk_from_bytes(bytes(corrupted))
        except ValueError:
            return  # rejected loudly: good
        assert vk_to_bytes(back) != vk_blob

    @given(junk=st.binary(min_size=0, max_size=64))
    @settings(max_examples=25, deadline=None)
    def test_arbitrary_bytes_rejected(self, junk):
        with pytest.raises(ValueError):
            vk_from_bytes(junk)


class TestPkFuzz:
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_byte_flips_never_silently_accepted(self, encoded, data):
        pk_blob, _ = encoded
        pos = data.draw(st.integers(min_value=0, max_value=len(pk_blob) - 1))
        bit = data.draw(st.integers(min_value=0, max_value=7))
        corrupted = bytearray(pk_blob)
        corrupted[pos] ^= 1 << bit
        try:
            back = pk_from_bytes(bytes(corrupted))
        except ValueError:
            return
        assert pk_to_bytes(back) != pk_blob

    @given(junk=st.binary(min_size=0, max_size=64))
    @settings(max_examples=25, deadline=None)
    def test_arbitrary_bytes_rejected(self, junk):
        with pytest.raises(ValueError):
            pk_from_bytes(junk)


class TestTruncationAndPadding:
    @pytest.mark.parametrize("which", ["pk", "vk"])
    def test_truncated_blob_reports_expected_vs_actual(self, encoded, which):
        blob = encoded[0] if which == "pk" else encoded[1]
        parse = pk_from_bytes if which == "pk" else vk_from_bytes
        with pytest.raises(ArtifactCorruption, match="truncated") as info:
            parse(blob[: len(blob) - 7])
        assert info.value.expected is not None
        assert info.value.actual is not None
        assert "expected" in str(info.value) and "actual" in str(info.value)

    @pytest.mark.parametrize("which", ["pk", "vk"])
    def test_trailing_bytes_rejected(self, encoded, which):
        blob = encoded[0] if which == "pk" else encoded[1]
        parse = pk_from_bytes if which == "pk" else vk_from_bytes
        with pytest.raises(ArtifactCorruption, match="trailing"):
            parse(blob + b"\x00\x01")

    def test_every_truncation_point_rejected(self, encoded):
        _, vk_blob = encoded
        for cut in range(len(vk_blob)):
            with pytest.raises(ValueError):
                vk_from_bytes(vk_blob[:cut])


class TestSubgroupCheck:
    @pytest.fixture(scope="class")
    def bls_session(self):
        circ, inputs = make_pow_circuit(BLS12_381, 4)
        rng = random.Random(51)
        pk, vk = setup(BLS12_381, circ, rng)
        proof = prove(pk, circ, generate_witness(circ, inputs), rng)
        return pk, vk, proof

    @staticmethod
    def _splice_g1(blob, offset, pt):
        fq = BLS12_381.g1.ops.fq
        x, y = pt.to_affine()
        enc = fq.to_bytes(x) + fq.to_bytes(y)
        return blob[:offset] + enc + blob[offset + len(enc):]

    def test_proof_with_rogue_point_rejected(self, bls_session):
        _, _, proof = bls_session
        blob = proof_to_bytes(proof)
        # Offset 8 (magic + curve id) is proof.a, a G1 point.
        bad = self._splice_g1(blob, 8, rogue_g1_point(BLS12_381.g1))
        with pytest.raises(ArtifactCorruption, match="subgroup"):
            proof_from_bytes(bad)

    def test_proof_with_rogue_point_in_c_rejected(self, bls_session):
        _, _, proof = bls_session
        blob = proof_to_bytes(proof)
        # proof.c is the last G1 point (BN128's G1 has cofactor 1: every
        # point of its curve is in the subgroup, nothing to splice there).
        g1 = BLS12_381.g1
        offset = len(blob) - 2 * g1.ops.coord_bytes
        bad = _spliced(blob, offset, _encode(g1, rogue_g1_point(g1).to_affine()))
        with pytest.raises(ArtifactCorruption, match="subgroup"):
            proof_from_bytes(bad)

    def test_vk_with_rogue_point_rejected(self, bls_session):
        _, vk, _ = bls_session
        blob = vk_to_bytes(vk)
        # Offset 8 is vk.alpha1, a G1 point.
        bad = self._splice_g1(blob, 8, rogue_g1_point(BLS12_381.g1))
        with pytest.raises(ArtifactCorruption, match="subgroup"):
            vk_from_bytes(bad)

    def test_pk_header_with_rogue_point_rejected(self, bls_session):
        pk, _, _ = bls_session
        blob = pk_to_bytes(pk)
        # Offset 12 (magic + curve id + domain_size) is pk.alpha1.
        bad = self._splice_g1(blob, 12, rogue_g1_point(BLS12_381.g1))
        with pytest.raises(ArtifactCorruption, match="subgroup"):
            pk_from_bytes(bad)

    def test_non_reduced_coordinate_rejected_typed(self, bls_session):
        _, vk, _ = bls_session
        blob = bytearray(vk_to_bytes(vk))
        # Overwrite alpha1.x with p itself — on no curve, and not even a
        # reduced field element; must still surface as typed corruption.
        fq = BLS12_381.g1.ops.fq
        blob[8: 8 + fq.nbytes] = fq.modulus.to_bytes(fq.nbytes, "little")
        with pytest.raises(ArtifactCorruption, match="not a valid curve point"):
            vk_from_bytes(bytes(blob))


def _encode(group, pt):
    fq = group.ops.fq if hasattr(group.ops, "fq") else group.ops.tower.fq
    x, y = pt
    coords = (x, y) if isinstance(x, int) else (*x, *y)
    return b"".join(fq.to_bytes(c) for c in coords)


def _spliced(blob, offset, enc):
    assert blob[offset: offset + len(enc)] != enc
    return blob[:offset] + enc + blob[offset + len(enc):]


class TestRogueG2AtEveryCheckedOffset:
    """On the twist, outside the subgroup (certified by the ``[r]P`` ladder
    of ``tests/oracle.py``), at each G2 slot of a proof and of a vk, on both
    curves: rejected typed, before any pairing."""

    @pytest.fixture(scope="class", params=[BN128, BLS12_381], ids=lambda c: c.name)
    def session(self, request):
        curve = request.param
        circ, inputs = make_pow_circuit(curve, 4)
        rng = random.Random(53)
        pk, vk = setup(curve, circ, rng)
        proof = prove(pk, circ, generate_witness(circ, inputs), rng)
        return curve, proof_to_bytes(proof), vk_to_bytes(vk)

    @pytest.mark.parametrize("slot", ["proof.b", "vk.beta2", "vk.gamma2", "vk.delta2"])
    def test_rogue_g2_point(self, session, slot):
        curve, proof_blob, vk_blob = session
        g1_bytes, g2_bytes = (2 * g.ops.coord_bytes for g in (curve.g1, curve.g2))
        (rogue,) = cofactor_points(curve, 1)
        enc = _encode(curve.g2, rogue)
        assert len(enc) == g2_bytes
        # Both start magic + curve id (8 bytes) + one G1 point (a / alpha1).
        index = ["proof.b", "vk.beta2", "vk.gamma2", "vk.delta2"].index(slot)
        offset = 8 + g1_bytes + max(0, index - 1) * g2_bytes
        parse, blob = (proof_from_bytes, proof_blob) if index == 0 else (vk_from_bytes, vk_blob)
        assert parse(blob) is not None
        with pytest.raises(ArtifactCorruption, match="subgroup") as info:
            parse(_spliced(blob, offset, enc))
        assert f"offset {offset}" in str(info.value)
