"""KZG commitment-scheme tests."""

import random

import pytest

from repro.curves import BN128
from repro.plonk.kzg import KZG, SRS

FR = BN128.fr


@pytest.fixture(scope="module")
def kzg():
    srs = SRS.generate(BN128, 24, random.Random(1))
    return KZG(srs)


def rand_poly(deg, seed):
    r = random.Random(seed)
    return [FR.rand(r) for _ in range(deg + 1)]


class TestCommit:
    def test_commitment_deterministic(self, kzg):
        p = rand_poly(5, 1)
        assert kzg.commit(p) == kzg.commit(p)

    def test_commitment_binds_polynomial(self, kzg):
        assert kzg.commit(rand_poly(5, 2)) != kzg.commit(rand_poly(5, 3))

    def test_commitment_additively_homomorphic(self, kzg):
        p = rand_poly(4, 4)
        q = rand_poly(4, 5)
        s = [FR.add(a, b) for a, b in zip(p, q)]
        assert kzg.commit(s) == kzg.commit(p) + kzg.commit(q)

    def test_degree_bound_enforced(self, kzg):
        with pytest.raises(ValueError):
            kzg.commit([1] * (kzg.srs.size + 1))

    def test_zero_polynomial(self, kzg):
        assert kzg.commit([0]).is_infinity()


def open_one(kzg, coeffs, z):
    """A one-polynomial batch opening: ``(y, witness_commitment)``."""
    (y,), w = kzg.open_batch([coeffs], z, 1)
    return y, w


class TestOpen:
    def test_open_verify_roundtrip(self, kzg):
        p = rand_poly(7, 6)
        z = FR.rand(random.Random(7))
        y, w = open_one(kzg, p, z)
        assert y == kzg.evaluate(p, z)
        assert kzg.verify(kzg.commit(p), z, y, w)

    def test_wrong_value_rejected(self, kzg):
        p = rand_poly(7, 8)
        z = FR.rand(random.Random(9))
        y, w = open_one(kzg, p, z)
        assert not kzg.verify(kzg.commit(p), z, FR.add(y, 1), w)

    def test_wrong_point_rejected(self, kzg):
        p = rand_poly(7, 10)
        z = FR.rand(random.Random(11))
        y, w = open_one(kzg, p, z)
        assert not kzg.verify(kzg.commit(p), FR.add(z, 1), y, w)

    def test_wrong_commitment_rejected(self, kzg):
        p = rand_poly(7, 12)
        z = FR.rand(random.Random(13))
        y, w = open_one(kzg, p, z)
        assert not kzg.verify(kzg.commit(rand_poly(7, 14)), z, y, w)

    def test_constant_polynomial(self, kzg):
        y, w = open_one(kzg, [42], 5)
        assert y == 42
        assert kzg.verify(kzg.commit([42]), 5, 42, w)

    def test_witness_poly_consistency_check(self, kzg):
        with pytest.raises(ValueError):
            kzg._witness_poly([1, 2, 3], 5, 999)  # p(5) != 999


class TestBatch:
    def test_batch_roundtrip(self, kzg):
        polys = [rand_poly(d, 20 + d) for d in (3, 5, 7)]
        z = FR.rand(random.Random(21))
        v = FR.rand(random.Random(22))
        evals, w = kzg.open_batch(polys, z, v)
        commits = [kzg.commit(p) for p in polys]
        assert kzg.verify_batch(commits, z, evals, w, v)

    def test_batch_single_poly(self, kzg):
        p = rand_poly(4, 23)
        z, v = 7, 11
        evals, w = kzg.open_batch([p], z, v)
        assert kzg.verify_batch([kzg.commit(p)], z, evals, w, v)

    def test_batch_tampered_eval_rejected(self, kzg):
        polys = [rand_poly(3, 24), rand_poly(4, 25)]
        z, v = 9, 13
        evals, w = kzg.open_batch(polys, z, v)
        commits = [kzg.commit(p) for p in polys]
        bad = [evals[0], FR.add(evals[1], 1)]
        assert not kzg.verify_batch(commits, z, bad, w, v)

    def test_batch_wrong_fold_challenge_rejected(self, kzg):
        polys = [rand_poly(3, 26), rand_poly(4, 27)]
        z = 9
        evals, w = kzg.open_batch(polys, z, 13)
        commits = [kzg.commit(p) for p in polys]
        assert not kzg.verify_batch(commits, z, evals, w, 14)

    def test_length_mismatch(self, kzg):
        with pytest.raises(ValueError):
            kzg.verify_batch([kzg.commit([1])], 1, [1, 2], kzg.commit([0]), 3)


def test_srs_reusable_across_kzg_instances():
    srs = SRS.generate(BN128, 10, random.Random(30))
    k1, k2 = KZG(srs), KZG(srs)
    p = rand_poly(3, 31)
    assert k1.commit(p) == k2.commit(p)
