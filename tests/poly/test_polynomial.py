"""Dense-polynomial arithmetic tests."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.fields import BN254_FR
from repro.poly import EvaluationDomain, Polynomial

FR = BN254_FR


def poly(*coeffs):
    return Polynomial(FR, list(coeffs))


def rand_poly(deg, seed=0):
    r = random.Random(seed)
    return Polynomial(FR, [FR.rand(r) for _ in range(deg + 1)])


class TestNormalization:
    def test_trailing_zeros_stripped(self):
        assert poly(1, 2, 0, 0).coeffs == (1, 2)

    def test_zero_polynomial(self):
        assert poly(0, 0).is_zero()
        assert poly().degree == -1
        assert not Polynomial.zero(FR)

    def test_coefficients_reduced(self):
        p = poly(FR.modulus + 3, -1)
        assert p.coeffs == (3, FR.modulus - 1)

    def test_constructors(self):
        assert Polynomial.one(FR) == poly(1)

    def test_equality_and_hash(self):
        assert poly(1, 2) == poly(1, 2, 0)
        assert hash(poly(1, 2)) == hash(poly(1, 2, 0))
        assert poly(1) != poly(2)

    def test_repr(self):
        assert "x^1" in repr(poly(0, 3)) or "3*x" in repr(poly(0, 3))
        assert repr(Polynomial.zero(FR)) == "Polynomial(0)"


class TestArithmetic:
    def test_add_sub(self):
        a, b = poly(1, 2, 3), poly(4, 5)
        assert a + b == poly(5, 7, 3)
        assert (a + b) - b == a
        assert a - a == Polynomial.zero(FR)

    def test_neg(self):
        a = poly(1, 2)
        assert a + (-a) == Polynomial.zero(FR)

    def test_mul_known(self):
        # (1 + x)(1 - x) = 1 - x^2
        assert poly(1, 1) * poly(1, FR.modulus - 1) == poly(1, 0, FR.modulus - 1)

    def test_mul_by_zero(self):
        assert poly(1, 2) * Polynomial.zero(FR) == Polynomial.zero(FR)

    def test_mul_degree(self):
        assert (rand_poly(3, 1) * rand_poly(4, 2)).degree == 7

    def test_scale(self):
        assert poly(1, 2).scale(3) == poly(3, 6)
        assert poly(1, 2) * 3 == poly(3, 6)
        assert 3 * poly(1, 2) == poly(3, 6)

    def test_mul_commutative_random(self):
        a, b = rand_poly(5, 3), rand_poly(6, 4)
        assert a * b == b * a


class TestDivision:
    def test_exact_division(self):
        a, b = rand_poly(4, 5), rand_poly(2, 6)
        q, r = (a * b).divmod(b)
        assert q == a
        assert r.is_zero()

    def test_division_with_remainder(self):
        a, b = rand_poly(5, 7), rand_poly(2, 8)
        q, r = a.divmod(b)
        assert q * b + r == a
        assert r.degree < b.degree

    def test_floordiv_mod_operators(self):
        a, b = rand_poly(5, 9), rand_poly(3, 10)
        assert (a // b) * b + (a % b) == a

    def test_divide_by_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            rand_poly(2, 11).divmod(Polynomial.zero(FR))

    def test_divide_smaller_by_larger(self):
        a, b = poly(1, 2), rand_poly(5, 12)
        q, r = a.divmod(b)
        assert q.is_zero() and r == a

    def test_vanishing_divides_difference_on_domain(self):
        # p - p(w_i)-interpolant is divisible by Z over the domain.
        d = EvaluationDomain(FR, 8)
        p = rand_poly(10, 13)
        evals = [(w, p.evaluate(w)) for w in d.elements()]
        interp = Polynomial.interpolate(FR, evals)
        diff = p - interp
        q, r = diff.divmod(Polynomial.vanishing(FR, d))
        assert r.is_zero()
        assert q * Polynomial.vanishing(FR, d) == diff


class TestEvaluation:
    def test_horner_known(self):
        p = poly(1, 2, 3)  # 1 + 2x + 3x^2
        assert p.evaluate(2) == 17

    def test_evaluate_at_zero(self):
        assert rand_poly(4, 14).evaluate(0) == rand_poly(4, 14).coeffs[0]


class TestInterpolation:
    def test_through_points(self):
        pts = [(1, 10), (2, 20), (3, 31)]
        p = Polynomial.interpolate(FR, pts)
        for x, y in pts:
            assert p.evaluate(x) == y

    def test_degree_bound(self):
        pts = [(i, i * i) for i in range(1, 6)]
        assert Polynomial.interpolate(FR, pts).degree <= 4

    def test_duplicate_x_raises(self):
        with pytest.raises(ValueError):
            Polynomial.interpolate(FR, [(1, 2), (1, 3)])

    def test_recovers_polynomial(self):
        p = rand_poly(4, 17)
        pts = [(x, p.evaluate(x)) for x in range(1, 7)]
        assert Polynomial.interpolate(FR, pts) == p


@given(seed=st.integers(min_value=0, max_value=1 << 20))
@settings(max_examples=25, deadline=None)
def test_distributivity_property(seed):
    a = rand_poly(3, seed)
    b = rand_poly(4, seed + 1)
    c = rand_poly(2, seed + 2)
    assert (a + b) * c == a * c + b * c


@given(seed=st.integers(min_value=0, max_value=1 << 20), x=st.integers(min_value=0, max_value=1 << 64))
@settings(max_examples=25, deadline=None)
def test_evaluation_is_ring_hom_property(seed, x):
    a = rand_poly(3, seed)
    b = rand_poly(3, seed + 99)
    assert (a * b).evaluate(x) == FR.mul(a.evaluate(x), b.evaluate(x))
    assert (a + b).evaluate(x) == FR.add(a.evaluate(x), b.evaluate(x))
