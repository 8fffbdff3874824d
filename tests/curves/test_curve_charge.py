"""Charged equals executed for ``Point.__mul__`` and ``Point.to_affine``
(docs/KERNELS.md, "Charging a reference").

A traced ``P * k`` computes its value by wNAF with the tracer detached and
is charged double-and-add of the reduced scalar from its bits; a traced
conversion of a ``Z == 1`` point returns the coordinates it holds and is
charged the inversion.  Each test holds that trace equal to the textbook
route executed under a tracer (:func:`tests.oracle.executed_curve_ops`) —
values, the region tree with every region's counts, the clock and the
memory events — on both curves, G1 and G2.  ``REPRO_KERNEL_FULL=1`` widens
the examples.
"""

import os
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.curves import BLS12_381, BN128
from repro.groth16 import generate_witness, prove, public_inputs, setup, verify
from repro.groth16.batch import batch_verify
from tests import oracle
from tests.conftest import make_pow_circuit

FULL = os.environ.get("REPRO_KERNEL_FULL") == "1"
EXAMPLES = 50 if FULL else 5

GROUPS = {g.name: g for c in (BN128, BLS12_381) for g in (c.g1, c.g2)}

all_groups = pytest.mark.parametrize("name", sorted(GROUPS))


def charged_and_executed(fn, *args):
    """The traces of ``fn(*args)`` as charged, and with the textbook route
    executed in place of each charge."""
    charged = oracle.trace(fn, *args)
    with oracle.executed_pairing(), oracle.executed_curve_ops():
        executed = oracle.trace(fn, *args)
    return charged, executed


def assert_charged(fn, *args):
    charged, executed = charged_and_executed(fn, *args)
    assert charged == executed
    return charged


@all_groups
class TestFormulaCosts:
    def test_read_off_the_curve_as_reported_on_it(self, name):
        # The per-group vectors are read on off-curve points; a subgroup
        # point's calls report the same.
        group = GROUPS[name]
        P, Q = (group.generator * 5).double(), group.generator * 7
        q = Q.to_affine()
        calls = {"double": P.double, "add": lambda: P + Q, "add_doubling": lambda: P + P,
                 "add_affine": lambda: P.add_affine(*q), "to_affine": P.to_affine}
        assert P.Z != group.ops.one
        for formula, call in calls.items():
            tracer = oracle.trace(call)[1]
            assert tracer.counts == group.cost[formula]
            assert list(tracer.counts) == list(group.cost[formula])


@all_groups
class TestToAffine:
    @settings(max_examples=EXAMPLES, deadline=None)
    @given(m=st.integers(1, 2**64), normalized=st.booleans())
    @example(m=1, normalized=False)
    def test_any_point(self, name, m, normalized):
        group = GROUPS[name]
        pt = group.generator * m
        if normalized:
            pt = pt.normalize()
        charged = assert_charged(pt.to_affine)
        assert charged[0] == oracle.inverting_affine(pt)

    def test_z_one_and_not(self, name):
        group = GROUPS[name]
        for pt in (group.generator, (group.generator * 3).double()):
            assert (pt.Z == group.ops.one) is (pt is group.generator)
            charged = assert_charged(pt.to_affine)
            assert charged[1].counts == group.cost["to_affine"]

    def test_infinity_is_charged_nothing(self, name):
        charged = assert_charged(GROUPS[name].infinity().to_affine)
        assert charged[0] is None and charged[2] == 0


@all_groups
class TestScalarMul:
    @settings(max_examples=EXAMPLES, deadline=None)
    @given(k=st.integers(-(1 << 260), 1 << 260), m=st.integers(1, 2**64))
    def test_any_scalar(self, name, k, m):
        pt = GROUPS[name].generator * m
        charged = assert_charged(pt.__mul__, k)
        assert charged[0] == oracle.ladder_mul(pt, k % pt.group.order)

    def test_edge_scalars(self, name):
        group = GROUPS[name]
        r = group.order
        pt = group.generator * 0xC0FFEE
        for k in (0, 1, 2, 3, r - 1, r, r + 1, 2 * r + 5, 1 << 128, 1 << (r.bit_length() - 1),
                  -1, -5, -r):
            charged = assert_charged(pt.__mul__, k)
            assert charged[0] == oracle.ladder_mul(pt, k % r)
            counts = charged[1].counts
            reduced = k % r
            doublings = max(reduced.bit_length() - 1, 0)
            assert counts[group._dbl_tag] == doublings
            assert counts[group._add_tag] == max(bin(reduced).count("1") - 1, 0)

    def test_identity_is_charged_nothing(self, name):
        charged = assert_charged(GROUPS[name].infinity().__mul__, 12345)
        assert charged[0].is_infinity() and charged[2] == 0


@pytest.fixture(scope="module", params=[BN128, BLS12_381], ids=["bn128", "bls12_381"])
def groth16(request):
    """``(pk, vk, circuit, witness)`` of one small circuit on each curve."""
    curve = request.param
    circuit, inputs = make_pow_circuit(curve, 4)
    pk, vk = setup(curve, circuit, random.Random(29))
    return pk, vk, circuit, generate_witness(circuit, inputs)


class TestProtocols:
    def test_prove(self, groth16):
        pk, _vk, circuit, witness = groth16
        charged = assert_charged(lambda: prove(pk, circuit, witness, random.Random(3)))
        assert charged[3]  # the bucket kernel's memory events, pinned

    def test_verify(self, groth16):
        pk, vk, circuit, witness = groth16
        proof = prove(pk, circuit, witness, random.Random(5))
        assert assert_charged(verify, vk, proof, public_inputs(circuit, witness))[0] is True

    @pytest.mark.parametrize("k", [1, 3])
    def test_batch_verify(self, groth16, k):
        pk, vk, circuit, witness = groth16
        batch = [(prove(pk, circuit, witness, random.Random(i)), public_inputs(circuit, witness))
                 for i in range(k)]
        charged = assert_charged(lambda: batch_verify(vk, batch, random.Random(k)))
        assert charged[0] is True
