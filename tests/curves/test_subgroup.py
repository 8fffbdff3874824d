"""``Group.in_subgroup``: still ``[r]P == O``, decided by an endomorphism.

The deserialisers (``groth16/serialize.py``) call it on every point of a
proof.  A cofactor-1 group answers from the curve equation alone; a group
with an :class:`~repro.curves.endomorphism.Endomorphism` record walks the
non-adjacent form of ``|a|`` and compares with ``+-sigma(P)``; any other
group walks the non-adjacent form of ``r``.  Every verdict is pinned against
the binary ``[r]P`` ladder it used to be (``tests/oracle.py``), and the maps
are checked for the two properties the soundness proof needs — additive,
and a root of their characteristic polynomial — on points *outside* the
subgroup, with nothing but ``+``, ``double`` and that ladder.
"""

import dataclasses
import os
from math import gcd

import pytest
from sympy import factorint

from repro.curves import BLS12_381, BN128
from repro.curves.curve import FpOps, Group, Point
from repro.curves.endomorphism import phi
from repro.fields.params import BN254_U
from repro.fields.prime_field import PrimeField
from tests.oracle import cofactor_points, g1_points, ladder, ladder_mul, point_of_order

FULL = os.environ.get("REPRO_KERNEL_FULL") == "1"

GROUPS = {g.name: g for c in (BN128, BLS12_381) for g in (c.g1, c.g2)}
CURVE_OF = {g.name: c for c in (BN128, BLS12_381) for g in (c.g1, c.g2)}


def curve_points(group, count):
    """Points of the whole curve group: outside the subgroup wherever a
    cofactor exists (certified by the ladder), all of ``E(Fq)`` on BN128."""
    curve = CURVE_OF[group.name]
    if group is curve.g1:
        points = g1_points(group, count)
    else:
        points = [group.point(x, y) for x, y in cofactor_points(curve, count)]
    assert all(ladder(group, pt) == (group.cofactor == 1) for pt in points)
    return points


def rebuilt(group, **changes):
    """*group* constructed again, with some arguments replaced."""
    args = dict(name=group.name + "/rebuilt", ops=group.ops, b=group.b,
                generator=group.generator.to_affine(), order=group.order,
                cofactor=group.cofactor, endomorphisms=[group.endomorphism])
    return Group(**{**args, **changes})


def test_naf_is_the_order_and_sparser_than_its_bits():
    # The digits each group walks: |a| with a record, r without.
    for group in GROUPS.values():
        naf = group._member_naf
        walked = abs(group.endomorphism.eigen)
        assert sum(d << i for i, d in enumerate(reversed(naf))) == walked
        assert set(naf) <= {-1, 0, 1} and naf[0] == 1
        assert all(not (a and b) for a, b in zip(naf, naf[1:]))
        assert sum(map(abs, naf)) <= bin(walked).count("1")
        assert 2 * walked < group.order
    weights = {name: sum(map(abs, g._member_naf)) for name, g in GROUPS.items()}
    assert weights["bls12_381.G1"] == 18
    assert weights["bls12_381.G2"] == 6
    assert weights["bn128.G2"] == 40
    toy = Group("toy.G1", FpOps(PrimeField(7, "toy.Fq"), "g1_toy"), 1, (0, 1), 3, 4)
    assert toy.endomorphism is None and toy._member_naf == [1, 0, -1]


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_subgroup_points_and_infinity(name):
    group = GROUPS[name]
    for k in (1, 2, 3, 0xDEADBEEF, group.order - 1):
        pt = group.generator * k
        assert group.in_subgroup(pt) and ladder(group, pt)
        assert group.in_subgroup(-pt)
    assert group.in_subgroup(group.infinity()) and ladder(group, group.infinity())
    assert group.in_subgroup(group.generator * group.order)


@pytest.mark.parametrize("curve", [BN128, BLS12_381], ids=lambda c: c.name)
def test_on_curve_points_outside_the_subgroup(curve):
    # Wherever a cofactor exists: BLS12-381's G1 and both twists.
    rogues = curve_points(curve.g2, 3)
    if curve.g1.cofactor != 1:
        rogues += curve_points(curve.g1, 3)
    for pt in rogues:
        group = pt.group
        assert not ladder(group, pt) and not group.in_subgroup(pt)
        # ... nor with a subgroup component added, nor un-normalised.
        shifted = pt + group.generator * 5
        assert shifted.Z != group.ops.one
        assert not ladder(group, shifted) and not group.in_subgroup(shifted)
        assert not group.in_subgroup(-pt)


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_the_map_is_additive_and_a_root_of_its_polynomial(name):
    # The two facts about sigma the proof in Group._admit takes as given,
    # on the *whole* curve group, by the ladder alone.
    group = GROUPS[name]
    endo = group.endomorphism
    c, d = endo.char

    def sigma(pt):
        return group.point(*endo.map(*pt.to_affine()))

    def signed(pt, k):
        return ladder_mul(pt if k >= 0 else -pt, abs(k))

    a, b, seed = curve_points(group, 3)
    P, Q = a + seed, b.double() + seed  # un-normalised
    assert P.Z != group.ops.one and Q.Z != group.ops.one
    assert sigma(P + Q) == sigma(P) + sigma(Q)
    assert sigma(-P) == -sigma(P) and sigma(P.double()) == sigma(P).double()
    for pt in (P, Q, group.generator):
        assert (sigma(sigma(pt)) + signed(sigma(pt), c) + signed(pt, d)).is_infinity()
    # ... and on the subgroup it is multiplication by a.
    G7 = group.generator * 7
    assert sigma(G7) == signed(G7, endo.eigen)


TORSION = [g.name for g in GROUPS.values() if g.cofactor != 1]


@pytest.mark.parametrize("name", TORSION)
def test_points_of_every_prime_order_dividing_the_cofactor(name):
    # The eigenspaces where a wrong a or beta would pass: on the l-torsion
    # sigma acts as some residue mod l, and gcd(m, cofactor) = 1 is what
    # keeps it away from a.  Tier-1 samples the two smallest primes and the
    # largest; REPRO_KERNEL_FULL=1 (make kernel-test, CI) takes all of them:
    # BLS12-381 h1 = 3 * 11^2 * 10177^2 * 859267^2 * 52437899^2,
    # h2 = 13^2 * 23^2 * 2713 * 11953 * 262069 * (a 448-bit prime),
    # BN128 h2 = 10069 * 5864401 * (a 41-bit prime) * (a 178-bit prime).
    group = GROUPS[name]
    primes = sorted(factorint(group.cofactor))
    assert group.cofactor % group.order != 0 and len(primes) >= 4
    if not FULL:
        primes = primes[:2] + primes[-1:]
    seeds = curve_points(group, 4)
    for ell in primes:
        pt = next(filter(None, (point_of_order(seed, ell) for seed in seeds)))
        assert not pt.is_infinity() and ladder_mul(pt, ell).is_infinity()
        for rogue in (pt, -pt, pt + group.generator * 5):
            assert not ladder(group, rogue) and not group.in_subgroup(rogue)


def test_a_record_that_fails_its_checks_cannot_be_installed():
    g1, g2 = BLS12_381.g1, BLS12_381.g2
    r = g1.order
    assert rebuilt(g1).endomorphism is g1.endomorphism
    # phi with the other cube root of unity: the generator check.
    (other,) = [e for e in phi(g1.ops.fq, r) if e.map(2, 3) != g1.endomorphism.map(2, 3)]
    with pytest.raises(ValueError, match="no endomorphism record"):
        rebuilt(g1, endomorphisms=[other])
    assert rebuilt(g1, endomorphisms=[other, g1.endomorphism]).endomorphism is g1.endomorphism
    # a + r is the same residue, but m picks up a factor of the cofactor:
    # a point of order 13 could pass.
    psi = g2.endomorphism
    (c, d), a = psi.char, psi.eigen + r
    assert gcd((a * a + c * a + d) // r, g2.cofactor) == 13
    with pytest.raises(ValueError, match="no endomorphism record"):
        rebuilt(g2, endomorphisms=[dataclasses.replace(psi, eigen=a)])
    # ... or the declared cofactor shares one with m = h1 = 3 * ...
    with pytest.raises(ValueError, match="no endomorphism record"):
        rebuilt(g2, cofactor=3 * g2.cofactor)
    # ... or the identity fails outright.
    with pytest.raises(ValueError, match="no endomorphism record"):
        rebuilt(g2, endomorphisms=[dataclasses.replace(psi, eigen=psi.eigen + 1)])


def test_bn128_g1_has_nothing_to_check(monkeypatch):
    # A BN curve has p + 1 - t points with trace t = 6u^2 + 1, and that
    # number *is* r: prime, so every point other than O has order r and the
    # curve equation (Group.point, _read_point) is the membership test.
    g1 = BN128.g1
    p, r = BN128.fq.modulus, BN128.fr.modulus
    assert p + 1 - (6 * BN254_U**2 + 1) == r == g1.order
    assert g1.cofactor == 1
    points = g1_points(g1, 4)
    assert all(ladder(g1, pt) for pt in points)

    def no_ladder(self):
        raise AssertionError("a cofactor-1 group ran the ladder")

    monkeypatch.setattr(Point, "double", no_ladder)
    assert all(g1.in_subgroup(pt) for pt in points)
    # Group.cofactor is what decides: the same curve declared with a
    # cofactor walks the chain.
    declared = Group("bn128.G1/cofactor", g1.ops, g1.b, (1, 2), r, cofactor=3)
    with pytest.raises(AssertionError, match="ran the ladder"):
        declared.in_subgroup(declared.point(1, 2))


def test_every_point_of_a_curve_with_two_torsion():
    # y^2 = x^3 + 1 over F_7 has 12 points, Z/2 x Z/6: three of order 2
    # (y = 0, which only ``double`` and ``add_affine``'s own exceptional
    # branches handle), r = 3, cofactor 4.  No production curve has even
    # order, so the order-2 case is checked here, exhaustively.
    fq = PrimeField(7, "toy.Fq")
    group = Group("toy.G1", FpOps(fq, "g1_toy"), 1, (0, 1), order=3, cofactor=4)
    points = [group.point(x, y) for x in range(7) for y in range(7)
              if group.on_curve(x, y)]
    assert len(points) == 11
    assert sum(1 for pt in points if pt.Y == 0) == 3
    members = [pt for pt in points if group.in_subgroup(pt)]
    assert sorted(pt.to_affine() for pt in members) == [(0, 1), (0, 6)]
    for pt in points:
        assert group.in_subgroup(pt) == ladder(group, pt)
        assert group.in_subgroup(pt.double()) == ladder(group, pt.double())
