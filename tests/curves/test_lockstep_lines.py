"""Lockstep line preparation against the per-point walk.

``PairingEngine._walk`` walks any number of twist points through the Miller
loop together, in flat ``Fp2`` steps with one ``Fp`` inversion a step for
all of them (docs/KERNELS.md, "Prepared G2 points and the shared-squaring
loop").  Its oracle is :func:`tests.oracle.lines`, the per-point walk one
``f2_*`` call a step and one ``f2_inv`` a line: every point's line tuples
must be the oracle's, whatever points it is walked with, and a point whose
walk divides by zero raises ``ZeroDivisionError``.  ``REPRO_KERNEL_FULL=1`` widens
the examples.
"""

import dataclasses
import os
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.curves import BLS12_381, BN128, PairingEngine
from tests.oracle import cofactor_points, lines

FULL = os.environ.get("REPRO_KERNEL_FULL") == "1"

CURVES = {"bn128": BN128, "bls12_381": BLS12_381}
ENGINES = {name: PairingEngine(curve) for name, curve in CURVES.items()}

both_curves = pytest.mark.parametrize("name", sorted(CURVES))


def per_point(eng, Q):
    """The oracle's lines of *Q*, or ``None`` where its walk divides by zero."""
    try:
        return tuple(lines(eng, Q))
    except ZeroDivisionError:
        return None


@both_curves
class TestLockstepEqualsPerPoint:
    @settings(max_examples=12 if FULL else 3, deadline=None)
    @given(seed=st.integers(0, 2**32), n=st.integers(1, 5))
    def test_subgroup_points(self, name, seed, n):
        eng = ENGINES[name]
        rng = random.Random(seed)
        points = [eng.curve.g2.random_point(rng).to_affine() for _ in range(n)]
        expected = [per_point(eng, Q) for Q in points]
        assert eng._walk(points) == expected
        assert [table.lines for table in eng.prepare_all(points)] == expected
        assert eng.prepare(points[0]).lines == expected[0]

    def test_points_outside_the_subgroup(self, name):
        eng = ENGINES[name]
        points = cofactor_points(eng.curve, 2) + [eng.curve.g2.generator.to_affine()]
        assert eng._walk(points) == [per_point(eng, Q) for Q in points]

    def test_identity_and_prepared_points_pass_through(self, name):
        eng = ENGINES[name]
        Q = (eng.curve.g2.generator * 3).to_affine()
        table = eng.prepare(Q)
        out = eng.prepare_all([None, table, Q])
        assert out[0] is None and out[1] is table
        assert out[2].point == Q and out[2].lines == table.lines
        assert eng.prepare_all([]) == [] and eng._walk([]) == []


@both_curves
@pytest.mark.parametrize("extra", [0, 2], ids=["vertical-chord", "chord-is-tangent"])
def test_a_degenerate_point_raises(name, extra):
    # A loop count of r (r + 2) brings every point of order r to R = -Q
    # (R = Q) at the last addition; points outside the subgroup walk on.
    curve = CURVES[name]
    eng = PairingEngine(dataclasses.replace(curve, ate_loop=curve.fr.modulus + extra))
    bad = curve.g2.generator.to_affine()
    good = cofactor_points(curve, 2)
    assert per_point(eng, bad) is None
    assert eng._walk(good) == [per_point(eng, Q) for Q in good]
    for walk in (eng._walk, eng.prepare_all):
        with pytest.raises(ZeroDivisionError):
            walk([good[0], bad, good[1]])
    with pytest.raises(ZeroDivisionError):
        eng.prepare(bad)
