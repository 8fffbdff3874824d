"""Batch-verification tests: completeness, single-bad-apple rejection,
and the claimed pairing savings."""

import random
import time

import pytest

from repro.curves import BN128
from repro.groth16 import generate_witness, prove, public_inputs, setup, verify
from repro.groth16.batch import batch_verify, weighted_publics
from repro.groth16.keys import Proof
from tests.conftest import make_pow_circuit


@pytest.fixture(scope="module")
def batch_session():
    circ, _ = make_pow_circuit(BN128, 4)
    rng = random.Random(61)
    pk, vk = setup(BN128, circ, rng)
    items = []
    for x in (2, 3, 5, 7):
        w = generate_witness(circ, {"x": x})
        proof = prove(pk, circ, w, rng)
        items.append((proof, public_inputs(circ, w)))
    return vk, items


class TestCompleteness:
    def test_valid_batch_accepts(self, batch_session):
        vk, items = batch_session
        assert batch_verify(vk, items, random.Random(1))

    def test_empty_batch_vacuously_true(self, batch_session):
        vk, _ = batch_session
        assert batch_verify(vk, [], random.Random(1))

    def test_singleton_batch_matches_individual(self, batch_session):
        vk, items = batch_session
        proof, publics = items[0]
        assert verify(vk, proof, publics)
        assert batch_verify(vk, [(proof, publics)], random.Random(2))

    def test_different_weights_still_accept(self, batch_session):
        vk, items = batch_session
        for seed in range(5):
            assert batch_verify(vk, items, random.Random(seed))


class TestWeightedPublics:
    def test_fold_in_fr_is_the_weighted_per_proof_fold(self, batch_session):
        vk, items = batch_session
        rng = random.Random(8)
        weighted = [(rng.getrandbits(128) | 1, publics) for _, publics in items]
        weighted.append((BN128.fr.modulus + 3, items[0][1]))     # r_i >= r folds too
        expected = BN128.g1.infinity()
        for r, publics in weighted:
            expected = expected + vk.fold_publics(publics) * r
        assert weighted_publics(vk, weighted) == expected
        assert weighted_publics(vk, []).is_infinity()

    def test_every_publics_is_checked(self, batch_session):
        vk, items = batch_session
        publics = items[0][1]
        for bad in ([], publics + publics, [publics[0] + BN128.fr.modulus]):
            with pytest.raises(ValueError):
                weighted_publics(vk, [(1, publics), (5, bad)])


class TestSoundness:
    def test_one_bad_public_poisons_batch(self, batch_session):
        vk, items = batch_session
        bad = list(items)
        proof, publics = bad[2]
        bad[2] = (proof, [(publics[0] + 1) % BN128.fr.modulus])
        assert not batch_verify(vk, bad, random.Random(3))

    def test_one_tampered_proof_poisons_batch(self, batch_session):
        vk, items = batch_session
        bad = list(items)
        proof, publics = bad[0]
        forged = Proof(curve=proof.curve, a=proof.a + BN128.g1.generator,
                       b=proof.b, c=proof.c)
        bad[0] = (forged, publics)
        assert not batch_verify(vk, bad, random.Random(4))

    def test_swapped_publics_poison_batch(self, batch_session):
        vk, items = batch_session
        bad = [(items[0][0], items[1][1]), (items[1][0], items[0][1])]
        assert not batch_verify(vk, bad, random.Random(5))

    def test_arity_checked(self, batch_session):
        vk, items = batch_session
        with pytest.raises(ValueError):
            batch_verify(vk, [(items[0][0], [])], random.Random(6))

    def test_rejection_robust_across_weights(self, batch_session):
        # A bad proof must not slip through for any of several weightings.
        vk, items = batch_session
        bad = list(items)
        proof, publics = bad[1]
        bad[1] = (proof, [(publics[0] + 5) % BN128.fr.modulus])
        for seed in range(6):
            assert not batch_verify(vk, bad, random.Random(seed))


class TestPerformance:
    def test_batch_beats_individual_verification(self, batch_session):
        vk, items = batch_session
        t0 = time.perf_counter()
        for proof, publics in items:
            assert verify(vk, proof, publics)
        t_individual = time.perf_counter() - t0
        t0 = time.perf_counter()
        assert batch_verify(vk, items, random.Random(7))
        t_batch = time.perf_counter() - t0
        # k+3 Miller loops + 1 final exp vs 4k + k: comfortably faster.
        assert t_batch < t_individual
