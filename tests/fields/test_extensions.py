"""Tests for the Fp2/Fp6/Fp12 tower (both curve parameter sets)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.fields import BLS12_381_TOWER, BN254_TOWER
from tests.oracle import fp12_add, fp12_pow

TOWERS = [("bn254", BN254_TOWER), ("bls12_381", BLS12_381_TOWER)]


@pytest.fixture(params=TOWERS, ids=lambda t: t[0])
def tower(request):
    return request.param[1]


def rand_fp2(tower, r):
    return (r.randrange(tower.fq.modulus), r.randrange(tower.fq.modulus))


ONE2 = (1, 0)
ZERO2 = (0, 0)


def fp6_one(tower):
    from repro.fields.extensions import Fp6

    return Fp6(tower, ONE2, ZERO2, ZERO2)


def rand_fp6(tower, r):
    from repro.fields.extensions import Fp6

    p = tower.fq.modulus
    return Fp6(tower, *[(r.randrange(p), r.randrange(p)) for _ in range(3)])


def rand_fp12(tower, r):
    from repro.fields.extensions import Fp12

    p = tower.fq.modulus
    c0 = tuple((r.randrange(p), r.randrange(p)) for _ in range(3))
    c1 = tuple((r.randrange(p), r.randrange(p)) for _ in range(3))
    return Fp12(tower, c0, c1)


class TestFp2:
    """The flat ``f2_*`` kernels on raw ``(c0, c1)`` pairs."""

    def test_u_squared_is_beta(self, tower):
        assert tower.f2_mul((0, 1), (0, 1)) == (tower.beta, 0)

    def test_field_axioms_random(self, tower):
        r = random.Random(1)
        a, b, c = (rand_fp2(tower, r) for _ in range(3))
        add, mul = tower.f2_add, tower.f2_mul
        assert add(a, b) == add(b, a)
        assert mul(a, b) == mul(b, a)
        assert mul(add(a, b), c) == add(mul(a, c), mul(b, c))
        assert tower.f2_sub(a, a) == ZERO2
        assert add(a, tower.f2_neg(a)) == ZERO2

    def test_inverse(self, tower):
        r = random.Random(2)
        a = rand_fp2(tower, r)
        assert tower.f2_mul(a, tower.f2_inv(a)) == ONE2

    def test_inverse_of_zero_raises(self, tower):
        with pytest.raises(ZeroDivisionError):
            tower.f2_inv(ZERO2)

    def test_division(self, tower):
        r = random.Random(3)
        a, b = rand_fp2(tower, r), rand_fp2(tower, r)
        assert tower.f2_mul(tower.f2_mul(a, tower.f2_inv(b)), b) == a

    def test_conjugate_is_frobenius(self, tower):
        r = random.Random(4)
        a = rand_fp2(tower, r)
        assert tower.f2_conj(a) == tower.f2_pow(a, tower.fq.modulus)

    def test_pow_matches_repeated_mul(self, tower):
        r = random.Random(5)
        a = rand_fp2(tower, r)
        mul = tower.f2_mul
        assert tower.f2_pow(a, 5) == mul(mul(mul(mul(a, a), a), a), a)
        assert tower.f2_pow(a, 0) == ONE2

    def test_negative_pow(self, tower):
        r = random.Random(6)
        a = rand_fp2(tower, r)
        inv_cubed = tower.f2_pow(tower.f2_inv(a), 3)
        assert tower.f2_mul(inv_cubed, tower.f2_pow(a, 3)) == ONE2

    def test_pow_rejects_negative_exponents(self, tower):
        # A negative exponent used to leave the loop at once and return one.
        with pytest.raises(ValueError, match="non-negative"):
            tower.f2_pow((3, 5), -1)

    def test_scalar_mul(self, tower):
        r = random.Random(7)
        a = rand_fp2(tower, r)
        assert tower.f2_scale(a, 3) == tower.f2_add(tower.f2_add(a, a), a)

    def test_square_matches_mul(self, tower):
        r = random.Random(8)
        a = rand_fp2(tower, r)
        assert tower.f2_sqr(a) == tower.f2_mul(a, a)

    def test_norm_multiplicativity(self, tower):
        # N(ab) = N(a) N(b) with N(a) = a0^2 - beta a1^2.
        fq = tower.fq
        r = random.Random(9)
        a, b = rand_fp2(tower, r), rand_fp2(tower, r)

        def norm(x):
            return fq.sub(fq.sqr(x[0]), fq.mul(tower.beta, fq.sqr(x[1])))

        assert norm(tower.f2_mul(a, b)) == fq.mul(norm(a), norm(b))


class TestFp6:
    def test_v_cubed_is_xi(self, tower):
        from repro.fields.extensions import Fp6

        z = (0, 0)
        v = Fp6(tower, z, (1, 0), z)
        assert (v * v * v).a == (tower.xi, z, z)

    def test_mul_by_v_matches_explicit(self, tower):
        from repro.fields.extensions import Fp6

        r = random.Random(10)
        a = rand_fp6(tower, r)
        z = (0, 0)
        v = Fp6(tower, z, (1, 0), z)
        assert a.mul_by_v() == a * v

    def test_inverse(self, tower):
        r = random.Random(11)
        a = rand_fp6(tower, r)
        assert a * a.inverse() == fp6_one(tower)

    def test_distributivity(self, tower):
        r = random.Random(12)
        a, b, c = (rand_fp6(tower, r) for _ in range(3))
        assert (a + b) * c == a * c + b * c

    def test_frobenius_matches_pow(self, tower):
        r = random.Random(13)
        a = rand_fp6(tower, r)
        p = tower.fq.modulus
        # a^p via repeated squaring on Fp6 is slow but feasible once.
        expected = _slow_pow_fp6(tower, a, p)
        assert a.frobenius() == expected


def _slow_pow_fp6(tower, a, e):
    acc = fp6_one(tower)
    base = a
    while e:
        if e & 1:
            acc = acc * base
        base = base * base
        e >>= 1
    return acc


class TestFp12:
    def test_w_squared_is_v(self, tower):
        from repro.fields.extensions import Fp12

        z = (0, 0)
        w = Fp12(tower, (z, z, z), ((1, 0), z, z))
        w2 = w * w
        assert w2.c0 == (z, (1, 0), z)
        assert w2.c1 == (z, z, z)

    def test_w_pow_12_in_base_field(self, tower):
        from repro.fields.extensions import Fp12

        z = (0, 0)
        w = Fp12(tower, (z, z, z), ((1, 0), z, z))
        w6 = fp12_pow(w, 6)
        assert w6.c0 == (tower.xi, z, z)  # w^6 == xi
        w12 = fp12_pow(w, 12)
        xi_sq = tower.f2_sqr(tower.xi)
        assert w12.c0 == (xi_sq, z, z)

    def test_inverse(self, tower):
        r = random.Random(15)
        f = rand_fp12(tower, r)
        assert f * f.inverse() == tower.fp12_one()

    def test_square_matches_mul(self, tower):
        r = random.Random(16)
        f = rand_fp12(tower, r)
        assert f.square() == f * f

    def test_conjugate_is_p6_frobenius(self, tower):
        r = random.Random(17)
        f = rand_fp12(tower, r)
        g = f
        for _ in range(6):
            g = g.frobenius()
        assert g == f.conjugate()

    def test_frobenius_order_twelve(self, tower):
        r = random.Random(18)
        f = rand_fp12(tower, r)
        g = f
        for _ in range(12):
            g = g.frobenius()
        assert g == f

    def test_frobenius_is_multiplicative(self, tower):
        r = random.Random(19)
        a, b = rand_fp12(tower, r), rand_fp12(tower, r)
        assert (a * b).frobenius() == a.frobenius() * b.frobenius()

    def test_pow_small(self, tower):
        r = random.Random(20)
        f = rand_fp12(tower, r)
        assert fp12_pow(f, 0) == tower.fp12_one()
        assert fp12_pow(f, 1) == f
        assert fp12_pow(f, 7) == f * f * f * f * f * f * f

    def test_negative_pow(self, tower):
        r = random.Random(21)
        f = rand_fp12(tower, r)
        assert fp12_pow(f, -2) * fp12_pow(f, 2) == tower.fp12_one()

    def test_is_one(self, tower):
        from repro.fields.extensions import Fp12

        z = (ZERO2,) * 3
        assert tower.fp12_one().is_one()
        assert not Fp12(tower, z, z).is_one()

    def test_fp6_halves_roundtrip(self, tower):
        from repro.fields.extensions import Fp12

        r = random.Random(22)
        lo, hi = rand_fp6(tower, r), rand_fp6(tower, r)
        f = Fp12(tower, lo.a, hi.a)
        assert f._lo() == lo and f._hi() == hi


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=20, deadline=None)
def test_fp12_distributivity_property(seed):
    tower = BN254_TOWER
    r = random.Random(seed)
    a, b, c = (rand_fp12(tower, r) for _ in range(3))
    assert fp12_add(a, b) * c == fp12_add(a * c, b * c)


def test_tower_requires_p_1_mod_6():
    from repro.fields.extensions import TowerParams
    from repro.fields.prime_field import PrimeField

    f = PrimeField(11, "f11")  # 11 - 1 = 10, not divisible by 6
    with pytest.raises(ValueError):
        TowerParams(f, beta=-1, xi=(1, 1))
