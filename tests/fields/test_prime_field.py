"""Unit and property tests for the prime-field arithmetic contexts."""

import numbers
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.fields import BN254_FR, BLS12_381_FR, BN254_FQ, BLS12_381_FQ, PrimeField

FIELDS = [BN254_FR, BLS12_381_FR, BN254_FQ, BLS12_381_FQ]


def elements(field):
    return st.integers(min_value=0, max_value=field.modulus - 1)


def nonzero(field):
    return st.integers(min_value=1, max_value=field.modulus - 1)


def kernel_pow(field, a, e):
    """``a^e`` by square-and-multiply on the field's ``sqr`` / ``mul``."""
    acc = 1
    for bit in bin(e)[2:]:
        acc = field.sqr(acc)
        if bit == "1":
            acc = field.mul(acc, a)
    return acc


@pytest.fixture(params=FIELDS, ids=lambda f: f.name)
def field(request):
    return request.param


class TestConstruction:
    def test_rejects_even_modulus(self):
        with pytest.raises(ValueError):
            PrimeField(10, "even")

    def test_rejects_tiny_modulus(self):
        with pytest.raises(ValueError):
            PrimeField(1, "one")

    def test_limb_counts(self):
        assert BN254_FR.limbs == 4
        assert BN254_FQ.limbs == 4
        assert BLS12_381_FR.limbs == 4
        assert BLS12_381_FQ.limbs == 6

    def test_bits(self):
        assert BN254_FQ.bits == 254
        assert BLS12_381_FQ.bits == 381
        assert BLS12_381_FR.bits == 255

    def test_equality_is_by_modulus(self):
        clone = PrimeField(BN254_FR.modulus, "clone")
        assert clone == BN254_FR
        assert hash(clone) == hash(BN254_FR)
        assert BN254_FR != BLS12_381_FR

    def test_repr_mentions_name(self, field):
        assert field.name in repr(field)


class TestRawArithmetic:
    def test_add_wraps(self, field):
        p = field.modulus
        assert field.add(p - 1, 1) == 0
        assert field.add(p - 1, 2) == 1

    def test_sub_wraps(self, field):
        assert field.sub(0, 1) == field.modulus - 1

    def test_neg(self, field):
        assert field.neg(0) == 0
        assert field.neg(5) == field.modulus - 5

    def test_mul_and_sqr_agree(self, field):
        r = random.Random(7)
        for _ in range(20):
            a = field.rand(r)
            assert field.sqr(a) == field.mul(a, a)

    def test_inv_of_zero_raises(self, field):
        with pytest.raises(ZeroDivisionError):
            field.inv(0)

    def test_div(self, field):
        r = random.Random(8)
        a, b = field.rand(r), field.rand_nonzero(r)
        assert field.mul(field.mul(a, field.inv(b)), b) == a

    def test_inverse_of_square(self, field):
        r = random.Random(9)
        a = field.rand_nonzero(r)
        assert field.mul(field.inv(a), a) == 1
        assert field.inv(field.sqr(a)) == field.sqr(field.inv(a))

    def test_fermat_little_theorem(self, field):
        r = random.Random(10)
        a = field.rand_nonzero(r)
        assert kernel_pow(field, a, field.modulus - 1) == 1

    def test_reduce(self, field):
        assert field.reduce(field.modulus + 3) == 3
        assert field.reduce(-1) == field.modulus - 1


@given(a=elements(BN254_FR), b=elements(BN254_FR), c=elements(BN254_FR))
@settings(max_examples=50)
def test_ring_axioms(a, b, c):
    f = BN254_FR
    assert f.add(a, b) == f.add(b, a)
    assert f.mul(a, b) == f.mul(b, a)
    assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
    assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


@given(a=nonzero(BLS12_381_FQ))
@settings(max_examples=30)
def test_inverse_roundtrip(a):
    f = BLS12_381_FQ
    assert f.mul(a, f.inv(a)) == 1


@given(a=elements(BN254_FR), b=elements(BN254_FR))
@settings(max_examples=50)
def test_sub_is_add_of_negation(a, b):
    f = BN254_FR
    assert f.sub(a, b) == f.add(a, f.neg(b))


class TestBatchInverse:
    def test_empty(self, field):
        assert field.batch_inv([]) == []

    def test_matches_scalar_inverse(self, field):
        r = random.Random(11)
        xs = [field.rand_nonzero(r) for _ in range(17)]
        assert field.batch_inv(xs) == [field.inv(x) for x in xs]

    def test_zero_raises_with_index(self, field):
        with pytest.raises(ZeroDivisionError, match="index 2"):
            field.batch_inv([1, 2, 0, 3])

    def test_single_element(self, field):
        assert field.batch_inv([2]) == [field.inv(2)]


class TestSqrt:
    def test_sqrt_of_zero(self, field):
        assert field.sqrt(0) == 0

    def test_sqrt_of_square(self, field):
        r = random.Random(12)
        for _ in range(10):
            a = field.rand(r)
            sq = field.sqr(a)
            root = field.sqrt(sq)
            assert root is not None
            assert field.sqr(root) == sq

    def test_nonresidue_returns_none(self, field):
        r = random.Random(13)
        found = 0
        for _ in range(40):
            a = field.rand_nonzero(r)
            if field.legendre(a) == -1:
                assert field.sqrt(a) is None
                found += 1
        assert found > 0  # about half should be non-residues

    def test_legendre_of_square_is_one(self, field):
        r = random.Random(14)
        a = field.rand_nonzero(r)
        assert field.legendre(field.sqr(a)) == 1

    def test_legendre_of_zero(self, field):
        assert field.legendre(0) == 0

    def test_general_tonelli_shanks_path(self):
        # 257 = 1 (mod 4): exercises the non-fast-path branch.
        f = PrimeField(257, "f257")
        for a in range(1, 257):
            sq = f.sqr(a)
            root = f.sqrt(sq)
            assert root is not None and f.sqr(root) == sq


class TestEncoding:
    def test_roundtrip(self, field):
        r = random.Random(15)
        a = field.rand(r)
        assert field.from_bytes(field.to_bytes(a)) == a

    def test_fixed_width(self, field):
        assert len(field.to_bytes(0)) == field.nbytes
        assert len(field.to_bytes(field.modulus - 1)) == field.nbytes

    def test_rejects_unreduced(self, field):
        raw = int(field.modulus).to_bytes(field.nbytes, "little")
        with pytest.raises(ValueError):
            field.from_bytes(raw)


class TestSmallOperands:
    def test_arithmetic(self, field):
        assert field.add(10, 3) == 13
        assert field.sub(10, 3) == 7
        assert field.mul(10, 3) == 30
        assert field.neg(3) == field.modulus - 3
        assert field.mul(field.mul(10, field.inv(3)), 3) == 10
        assert field.sqr(3) == 9

    def test_inverse_and_sqrt(self, field):
        assert field.mul(field.inv(9), 9) == 1
        root = field.sqrt(9)
        assert root in (3, field.modulus - 3)
        assert field.sqr(root) == 9


class _Residue:
    """An integral type that is not ``int``, as a caller's ``numpy.int64``
    or ``gmpy2.mpz`` is."""

    def __init__(self, v):
        self.v = v

    def __ge__(self, other):
        return self.v >= other

    def __lt__(self, other):
        return self.v < other


numbers.Integral.register(_Residue)


class TestCheckPublics:
    """The verifiers' public-input guard: reduced integers only."""

    def test_accepts_reduced_values(self, field):
        field.check_publics([0, 1, field.modulus - 1], 3)

    def test_accepts_any_integral_type(self, field):
        """Publics come from outside: any ``numbers.Integral`` in range passes."""
        field.check_publics([_Residue(5), _Residue(field.modulus - 1)], 2)
        with pytest.raises(ValueError, match=r"public inputs\[0\] is not"):
            field.check_publics([_Residue(field.modulus)], 1)

    @pytest.mark.parametrize("bad", ["p", "p+1", "-1", "True", "float", "str"])
    def test_rejects_unreduced_or_non_integer(self, field, bad):
        p = field.modulus
        value = {"p": p, "p+1": p + 1, "-1": -1, "True": True, "float": 1.0,
                 "str": "1"}[bad]
        with pytest.raises(ValueError,
                           match=r"public inputs\[1\] is not a reduced"):
            field.check_publics([1, value], 2)

    def test_count_is_checked_first(self, field):
        with pytest.raises(ValueError, match="expected 2 public inputs, got 1"):
            field.check_publics([field.modulus], 2)
