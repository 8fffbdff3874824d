"""``Group.in_subgroup``: still ``[r]P == O``, by a shorter chain.

The deserialisers (``groth16/serialize.py``) call it on every point of a
proof, so it is a quarter of a bytes-in ``verify``.  Two things changed and
both are pinned against the binary double-and-add ladder it used to be
(:func:`ladder`, kept here as the oracle): a cofactor-1 group answers from
the curve equation alone, and every other group walks the non-adjacent form
of ``r`` with mixed additions of ``+-P``.
"""

import pytest

from repro.curves import BLS12_381, BN128
from repro.curves.curve import FpOps, Group, Point
from repro.fields.params import BN254_U
from repro.fields.prime_field import PrimeField
from tests.curves.test_pairing_differential import cofactor_points

GROUPS = {g.name: g for c in (BN128, BLS12_381) for g in (c.g1, c.g2)}


def ladder(group, pt):
    """The previous implementation: unreduced binary double-and-add."""
    acc = group.infinity()
    for bit in bin(group.order)[2:]:
        acc = acc.double()
        if bit == "1":
            acc = acc + pt
    return acc.is_infinity()


def g1_points(group, count):
    """On-curve G1 points from the smallest abscissas (``p = 3 mod 4``)."""
    p = group.ops.fq.modulus
    found, x = [], 1
    while len(found) < count:
        rhs = (pow(x, 3, p) + group.b) % p
        y = pow(rhs, (p + 1) // 4, p)
        if y * y % p == rhs:
            found.append(group.point(x, y))
        x += 1
    return found


def test_naf_is_the_order_and_sparser_than_its_bits():
    for group in GROUPS.values():
        naf = group._order_naf
        assert sum(d << i for i, d in enumerate(reversed(naf))) == group.order
        assert set(naf) <= {-1, 0, 1} and naf[0] == 1
        assert all(not (a and b) for a, b in zip(naf, naf[1:]))
        assert sum(map(abs, naf)) < bin(group.order).count("1")
    assert sum(map(abs, BLS12_381.g1._order_naf)) == 60
    assert sum(map(abs, BN128.g2._order_naf)) == 74


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
    rogues = [curve.g2.point(x, y) for x, y in cofactor_points(curve, 3)]
    if curve.g1.cofactor != 1:
        rogues += g1_points(curve.g1, 3)
    for pt in rogues:
        group = pt.group
        assert not ladder(group, pt) and not group.in_subgroup(pt)
        # ... nor with a subgroup component added, nor un-normalised.
        shifted = pt + group.generator * 5
        assert shifted.Z != group.ops.one
        assert not ladder(group, shifted) and not group.in_subgroup(shifted)
        assert not group.in_subgroup(-pt)


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
