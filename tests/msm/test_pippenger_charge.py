"""Charged equals executed for ``msm_auto`` (docs/KERNELS.md, "Charging a
reference").

A traced ``msm_auto`` computes its value by the fast kernel with the tracer
detached and is charged the textbook bucket method from the live terms'
scalars (:func:`repro.msm.pippenger.charge_pippenger`).  Each test holds
that trace equal to the bucket method executed under a tracer
(:func:`tests.oracle.executed_msm`) — the value, the region tree with every
region's counts, the clock and the memory events with their clock stamps —
on both curves, G1 and G2, and for the traced protocol calls that reach it.
On dependent bases the charge stays the generic branch's ("The ``H == 0``
rule"): the value is right, and the trace is the one charged for
independent bases with the same scalars.  ``REPRO_KERNEL_FULL=1`` widens
the examples.
"""

import os
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.curves import BLS12_381, BN128
from repro.groth16 import generate_witness, prove, setup
from repro.msm import msm_auto, optimal_window
from repro.plonk.kzg import KZG, SRS
from tests import oracle
from tests.conftest import make_pow_circuit

FULL = os.environ.get("REPRO_KERNEL_FULL") == "1"
EXAMPLES = 25 if FULL else 3

GROUPS = {g.name: g for c in (BN128, BLS12_381) for g in (c.g1, c.g2)}

all_groups = pytest.mark.parametrize("name", sorted(GROUPS))


def charged_and_executed(fn, *args):
    """The traces of ``fn(*args)`` as charged, and with the bucket method
    executed in place of each charge."""
    charged = oracle.trace(fn, *args)
    with oracle.executed_msm():
        executed = oracle.trace(fn, *args)
    return charged, executed


def bases(group, n, seed=0):
    """*n* independent affine bases: random multiples of the generator."""
    rng = random.Random(seed)
    return [(group.generator * rng.randrange(1, group.order)).to_affine() for _ in range(n)]


def assert_charged(group, points, scalars):
    """A traced ``msm_auto`` leaves the executed bucket method's trace, and
    its value is the bucket method's."""
    charged, executed = charged_and_executed(msm_auto, group, points, scalars)
    assert charged[1:] == executed[1:]
    assert charged[0].to_affine() == oracle.msm_pippenger(group, points, scalars).to_affine()
    return charged


def region_names(rec):
    """The names of *rec*'s region tree."""
    return {rec.name}.union(*map(region_names, rec.children))


def window_layout(group, n):
    """``(c, n_windows)`` of the bucket method over *n* live terms."""
    c = optimal_window(n)
    return c, -(-group.order.bit_length() // c)


@all_groups
class TestEdges:
    def test_nothing_live_is_charged_nothing(self, name):
        group = GROUPS[name]
        (p,) = bases(group, 1)
        for points, scalars in (([], []), ([None, None], [3, 5]),
                                ([p, p], [0, group.order]), ([None, p], [7, 0])):
            charged = assert_charged(group, points, scalars)
            assert charged[0].is_infinity()
            assert (charged[1].children, charged[2], charged[3]) == ([], 0, [])

    def test_single_term(self, name):
        group = GROUPS[name]
        r = group.order
        (p,) = bases(group, 1, seed=3)
        c, n_windows = window_layout(group, 1)
        for k in (1, 2, r - 1, r + 1, 3 * r + 7, random.Random(5).randrange(r)):
            charged = assert_charged(group, [p], [k])
            assert c == 1 and len(charged[1].children) == n_windows

    @pytest.mark.parametrize("n", [2, 3, 5, 1 << 6])
    def test_random_scalars_with_edges(self, name, n):
        # n < 4 walks 1-bit windows; 2^6 terms walk 4-bit ones.
        group = GROUPS[name]
        r, rng = group.order, random.Random(n)
        scalars = [rng.randrange(3 * r) for _ in range(n)]
        scalars[0], scalars[-1] = r - 1, r + rng.randrange(r)
        points = bases(group, n, seed=n)
        if n > 3:
            points[1], scalars[2] = None, 0
        charged = assert_charged(group, points, scalars)
        windows = charged[1].children
        assert {(w.name, w.parallel) for w in windows} == {("msm_window", True)}
        assert len(windows) == window_layout(group, windows[0].items)[1]

    @pytest.mark.parametrize("n", [3, 6])
    def test_all_zero_low_windows(self, name, n):
        group = GROUPS[name]
        r, rng = group.order, random.Random(n)
        shift = r.bit_length() // 2
        scalars = [rng.randrange(1, r >> shift) << shift for _ in range(n)]
        assert_charged(group, bases(group, n, seed=n), scalars)

    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_top_window_alone(self, name, n):
        group = GROUPS[name]
        c, n_windows = window_layout(group, n)
        top = c * (n_windows - 1)
        rng = random.Random(n)
        digits = [rng.randrange(1, max(2, group.order >> top)) for _ in range(n)]
        charged = assert_charged(group, bases(group, n, seed=n), [d << top for d in digits])
        # Every window but the top one is charged its digits and nothing else.
        assert all(set(w.counts) == {"msm_digit"} for w in charged[1].children[:-1])

    @settings(max_examples=EXAMPLES, deadline=None)
    @given(scalars=st.lists(st.integers(0, 1 << 256), max_size=6),
           seed=st.integers(0, 1 << 32))
    def test_any_scalars(self, name, scalars, seed):
        group = GROUPS[name]
        assert_charged(group, bases(group, len(scalars), seed), scalars)


@all_groups
class TestDependentBases:
    """Bases sharing an ``x`` take ``__add__`` / ``add_affine``'s short
    branch where the executed bucket method meets them; the charge does not
    look at points, so it is the trace of independent bases."""

    def assert_rule(self, group, points, scalars):
        charged = oracle.trace(msm_auto, group, points, scalars)
        assert charged[0].to_affine() == oracle.msm_pippenger(group, points, scalars).to_affine()
        independent = oracle.trace(msm_auto, group, bases(group, len(points), 11), scalars)
        assert charged[1:] == independent[1:]
        return charged

    def test_equal_bases(self, name):
        group = GROUPS[name]
        (p,) = bases(group, 1, seed=1)
        k = random.Random(2).randrange(group.order)
        charged = self.assert_rule(group, [p, p], [k, k])
        with oracle.executed_msm():
            # Each bucket P + P doubles where the charge adds.
            assert oracle.trace(msm_auto, group, [p, p], [k, k])[1:] != charged[1:]

    def test_opposite_bases(self, name):
        group = GROUPS[name]
        (p,) = bases(group, 1, seed=1)
        minus_p = (-group.point_unchecked(*p)).to_affine()
        k = random.Random(3).randrange(group.order)
        charged = self.assert_rule(group, [p, minus_p], [k, k])
        assert charged[0].is_infinity()

    def test_repeated_bases(self, name):
        group = GROUPS[name]
        p, q = bases(group, 2, seed=4)
        rng = random.Random(5)
        self.assert_rule(group, [p] * 8 + [q] * 8, [rng.randrange(group.order) for _ in range(16)])


@pytest.mark.parametrize("curve", [BN128, BLS12_381], ids=["bn128", "bls12_381"])
class TestProtocols:
    def test_prove(self, curve):
        circuit, inputs = make_pow_circuit(curve, 4)
        pk, _vk = setup(curve, circuit, random.Random(41))
        witness = generate_witness(circuit, inputs)
        charged, executed = charged_and_executed(
            lambda: prove(pk, circuit, witness, random.Random(43)))
        assert charged == executed
        assert "msm_window" in region_names(charged[1])

    def test_kzg_commit(self, curve):
        kzg = KZG(SRS.generate(curve, 6, random.Random(37)))
        coeffs = [random.Random(8).randrange(curve.fr.modulus) for _ in range(6)]
        charged, executed = charged_and_executed(kzg.commit, coeffs)
        assert charged[1:] == executed[1:]
        assert charged[0] == oracle.msm_pippenger(curve.g1, kzg.srs.g1_powers, coeffs)
