"""Group-law tests for G1 and G2 on both curves."""

import os
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.curves import BLS12_381, BN128, get_curve
from repro.curves.curve import FpOps, Group
from repro.fields.prime_field import PrimeField
from tests.oracle import ladder_mul, reference

FULL = os.environ.get("REPRO_KERNEL_FULL") == "1"

GROUPS = [
    ("bn128.G1", BN128.g1),
    ("bn128.G2", BN128.g2),
    ("bls12_381.G1", BLS12_381.g1),
    ("bls12_381.G2", BLS12_381.g2),
]


@pytest.fixture(params=GROUPS, ids=lambda g: g[0])
def group(request):
    return request.param[1]


class TestLookup:
    def test_get_curve_aliases(self):
        assert get_curve("bn128") is BN128
        assert get_curve("BN254") is BN128
        assert get_curve("bls12-381") is BLS12_381
        assert get_curve("BLS12_381") is BLS12_381

    def test_unknown_curve(self):
        with pytest.raises(ValueError, match="unknown curve"):
            get_curve("secp256k1")


class TestConstruction:
    def test_generator_on_curve(self, group):
        x, y = group.generator.to_affine()
        assert group.on_curve(x, y)

    def test_generator_order(self, group):
        assert (group.generator * group.order).is_infinity()

    def test_point_validates(self, group):
        gx, gy = group.generator.to_affine()
        bad_y = group.ops.add(gy, group.ops.one)
        with pytest.raises(ValueError, match="not on the curve"):
            group.point(gx, bad_y)

    def test_infinity_properties(self, group):
        inf = group.infinity()
        assert inf.is_infinity()
        assert not inf
        assert inf.to_affine() is None

    def test_random_point_in_subgroup(self, group):
        pt = group.random_point(random.Random(1))
        assert not pt.is_infinity()
        assert group.in_subgroup(pt)


class TestGroupLaw:
    def test_identity(self, group):
        P = group.generator
        inf = group.infinity()
        assert P + inf == P
        assert inf + P == P
        assert inf + inf == inf

    def test_inverse(self, group):
        P = group.generator
        assert (P + (-P)).is_infinity()
        assert P - P == group.infinity()

    def test_double_negate_infinity(self, group):
        inf = group.infinity()
        assert (-inf).is_infinity()
        assert inf.double().is_infinity()

    def test_commutativity(self, group):
        r = random.Random(2)
        P, Q = group.random_point(r), group.random_point(r)
        assert P + Q == Q + P

    def test_associativity(self, group):
        r = random.Random(3)
        P, Q, R = (group.random_point(r) for _ in range(3))
        assert (P + Q) + R == P + (Q + R)

    def test_double_equals_self_add(self, group):
        r = random.Random(4)
        P = group.random_point(r)
        assert P.double() == P + P

    def test_add_affine_matches_general_add(self, group):
        r = random.Random(5)
        P, Q = group.random_point(r), group.random_point(r)
        qx, qy = Q.to_affine()
        assert P.add_affine(qx, qy) == P + Q

    def test_add_affine_from_infinity(self, group):
        qx, qy = group.generator.to_affine()
        assert group.infinity().add_affine(qx, qy) == group.generator

    def test_add_affine_doubling_case(self, group):
        P = group.generator
        px, py = P.to_affine()
        assert P.add_affine(px, py) == P.double()

    def test_add_affine_inverse_case(self, group):
        P = group.generator
        nx, ny = (-P).to_affine()
        assert P.add_affine(nx, ny).is_infinity()

    def test_add_same_point_general(self, group):
        P = group.generator.normalize()
        Q = group.generator * 1  # different Z representation path
        assert P + Q == P.double()


class TestScalarMul:
    def test_small_scalars(self, group):
        P = group.generator
        acc = group.infinity()
        for k in range(8):
            assert P * k == acc
            acc = acc + P

    def test_zero_scalar(self, group):
        assert (group.generator * 0).is_infinity()

    def test_scalar_reduced_mod_order(self, group):
        P = group.generator
        assert P * (group.order + 5) == P * 5

    def test_negative_via_order(self, group):
        P = group.generator
        assert P * (group.order - 1) == -P

    def test_distributes_over_addition(self, group):
        r = random.Random(6)
        a = r.randrange(1, 1 << 64)
        b = r.randrange(1, 1 << 64)
        P = group.generator
        assert P * a + P * b == P * (a + b)

    def test_rmul(self, group):
        assert 3 * group.generator == group.generator * 3


class TestScalarMulAgainstReference:
    """Untraced ``P * k`` (wNAF over an affine odd table, GLV-interleaved on
    G1) against the same call under a tracer: binary double-and-add."""

    def test_edge_and_random_scalars(self, group):
        r = group.order
        rng = random.Random(7)
        scalars = [0, 1, 2, r - 1, r, r + 1, 2**127, 2**128 - 1, -5]
        scalars += [rng.randrange(r) for _ in range(6)]
        P = group.generator * 0xC0FFEE + group.generator
        assert P.Z != group.ops.one
        for pt in (P, P.normalize(), group.infinity()):
            for k in scalars:
                got = pt * k
                assert got == reference(pt.__mul__, k) == k * pt
                assert got == ladder_mul(pt, k % r)

    @pytest.mark.parametrize("name", [name for name, _ in GROUPS])
    @settings(max_examples=500 if FULL else 25, deadline=None)
    @given(k=st.integers(min_value=-(1 << 260), max_value=1 << 260), m=st.integers(1, 1 << 64))
    def test_any_scalar_any_subgroup_point(self, name, k, m):
        # Parametrized, not the fixture: hypothesis rejects function scope.
        # 25 examples a group in tier-1, 500 under REPRO_KERNEL_FULL=1.
        pt = dict(GROUPS)[name].generator * m
        assert pt * k == reference(pt.__mul__, k)

    def test_every_point_and_scalar_of_a_toy_group(self):
        # y^2 = x^3 + 1 over F_7: 12 points, orders 1, 2, 3 and 6.  The odd
        # table of an order-3 point holds 3P = O (the fast route declines);
        # an order-2 point doubles to O inside it.
        fq = PrimeField(7, "toy.Fq")
        toy = Group("toy.G1", FpOps(fq, "g1_toy"), 1, (0, 1), order=3, cofactor=4)
        points = [toy.point(x, y) for x in range(7) for y in range(7) if toy.on_curve(x, y)]
        assert len(points) == 11
        for pt in points + [toy.infinity(), points[3].double()]:
            for k in range(-4, 8):
                assert pt * k == reference(pt.__mul__, k) == ladder_mul(pt, k % 3)


class TestCoordinates:
    def test_normalize_preserves_value(self, group):
        P = group.generator * 7
        assert P.normalize() == P
        assert P.normalize().Z == group.ops.one

    def test_affine_roundtrip(self, group):
        P = group.generator * 11
        x, y = P.to_affine()
        assert group.point(x, y) == P

    def test_eq_across_representations(self, group):
        # 4P computed two ways lands in different Jacobian coordinates.
        P = group.generator
        assert P.double().double() == P * 4

    def test_hash_consistent(self, group):
        assert hash(group.generator * 3) == hash(
            (group.generator + group.generator) + group.generator
        )

    def test_repr(self, group):
        assert group.name in repr(group.generator)
        assert "infinity" in repr(group.infinity())


@given(k=st.integers(min_value=1, max_value=1 << 128))
@settings(max_examples=15, deadline=None)
def test_scalar_mul_homomorphism_property(k):
    g = BN128.g1
    P = g.generator
    assert (P * k) + P == P * (k + 1)


def test_in_subgroup_rejects_low_order_shift():
    # A point on the curve but with a wrong-order component would fail the
    # subgroup check; G1 on BN128 has cofactor 1 so every curve point passes,
    # which the check should confirm for a few multiples.
    g = BN128.g1
    for k in (1, 2, 12345):
        assert g.in_subgroup(g.generator * k)


def test_in_subgroup_rejects_cofactor_component():
    # BLS12-381 G1 has cofactor ~2**125: almost every curve point is
    # outside the r-subgroup.  The check must not degenerate via the
    # scalar-mod-order reduction in Point.__mul__ (pt * order == pt * 0).
    from repro.curves import BLS12_381

    g = BLS12_381.g1
    p = g.ops.fq.modulus
    x = 4  # first x whose RHS is square; p = 3 (mod 4) so sqrt = rhs^((p+1)/4)
    rhs = (pow(x, 3, p) + g.b) % p
    y = pow(rhs, (p + 1) // 4, p)
    assert y * y % p == rhs
    rogue = g.point(x, y)
    assert not g.in_subgroup(rogue)
    assert g.in_subgroup(g.generator * 7)
    assert g.in_subgroup(g.infinity())
