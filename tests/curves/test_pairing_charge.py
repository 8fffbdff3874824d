"""Charged equals executed (docs/KERNELS.md, "Charging a reference").

A traced pairing call computes its value by the engine's one formulation
with the tracer detached, then charges the tracer the primitives of the
textbook route from control data alone: the loop's bits, the hard
exponent's bits and the tower's report rule.  Each test here holds that
trace equal to the textbook route of ``tests/oracle.py`` executed under a
tracer — the region tree with every region's counts, the clock and the
memory events (none, for the pairing itself) — on both curves.  The
engine's own calls are compared with the oracle's functions; the protocol
calls with themselves, run within :func:`tests.oracle.executed_pairing`.
``REPRO_KERNEL_FULL=1`` widens the examples.
"""

import os
import random
from functools import partial

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.curves import BLS12_381, BN128
from repro.curves.pairing import engine_for
from repro.fields.extensions import Fp12
from repro.groth16 import generate_witness, prove, public_inputs, setup, verify
from repro.groth16.batch import batch_verify
from repro.plonk.kzg import KZG, SRS
from tests import oracle
from tests.conftest import make_pow_circuit

FULL = os.environ.get("REPRO_KERNEL_FULL") == "1"
EXAMPLES = 12 if FULL else 3

CURVES = {"bn128": BN128, "bls12_381": BLS12_381}

both_curves = pytest.mark.parametrize("name", sorted(CURVES))


def assert_charged(call, textbook, *args):
    """``call(*args)`` traced leaves the trace of *textbook* executed: equal
    values, region trees with every region's counts, and clocks, and no
    memory event."""
    charged = oracle.trace(call, *args)
    assert charged == oracle.trace(textbook, *args)
    assert charged[3] == []


def random_pairs(curve, rng, n):
    """*n* pairs of group points; about one in four G1 points the identity."""
    return [(curve.g1.infinity() if rng.random() < 0.25 else curve.g1.random_point(rng),
             curve.g2.random_point(rng)) for _ in range(n)]


@both_curves
class TestEngine:
    @settings(max_examples=EXAMPLES, deadline=None)
    @given(a=st.integers(0, 2**64), b=st.integers(0, 2**64))
    @example(a=0, b=5)
    @example(a=5, b=0)
    def test_miller_loop(self, name, a, b):
        curve = CURVES[name]
        eng = engine_for(curve)
        P, Q = (curve.g1.generator * a).to_affine(), (curve.g2.generator * b).to_affine()
        assert_charged(eng.miller_loop, partial(oracle.miller_loop, eng), P, Q)

    @settings(max_examples=EXAMPLES, deadline=None)
    @given(seed=st.integers(0, 2**32))
    def test_miller_loop_with_a_prepared_point(self, name, seed):
        curve = CURVES[name]
        eng = engine_for(curve)
        rng = random.Random(seed)
        P, Q = curve.g1.random_point(rng).to_affine(), curve.g2.random_point(rng).to_affine()
        table = eng.prepare(Q)
        assert_charged(eng.miller_loop, partial(oracle.miller_loop, eng), P, table)

    @settings(max_examples=EXAMPLES, deadline=None)
    @given(seed=st.integers(0, 2**32))
    def test_final_exponentiation_of_any_nonzero_element(self, name, seed):
        eng = engine_for(CURVES[name])
        rng = random.Random(seed)
        p = eng.tower.fq.modulus
        coeffs = [(rng.randrange(p), rng.randrange(p)) for _ in range(6)]
        f = Fp12(eng.tower, tuple(coeffs[:3]), tuple(coeffs[3:]))
        assert_charged(eng.final_exponentiation, partial(oracle.final_exponentiation, eng), f)

    @settings(max_examples=EXAMPLES, deadline=None)
    @given(seed=st.integers(0, 2**32), n=st.integers(0, 5), with_f=st.booleans())
    def test_multi_pairing(self, name, seed, n, with_f):
        curve = CURVES[name]
        eng = engine_for(curve)
        rng = random.Random(seed)
        pairs = random_pairs(curve, rng, n)
        if n:
            # One leg over stored lines, as the verifiers hand it.
            P, Q = pairs[-1]
            pairs[-1] = (P, eng.prepare(Q.to_affine()))
        f = eng.miller_loop(*(pt.to_affine() for pt in random_pairs(curve, rng, 1)[0])) \
            if with_f else None
        assert_charged(eng.multi_pairing, partial(oracle.multi_pairing, eng), pairs, f)


@pytest.fixture(scope="module", params=sorted(CURVES))
def groth16(request):
    """``(vk, proof, publics)`` of one small circuit on each curve."""
    curve = CURVES[request.param]
    circuit, inputs = make_pow_circuit(curve, 4)
    rng = random.Random(29)
    pk, vk = setup(curve, circuit, rng)
    witness = generate_witness(circuit, inputs)
    return vk, prove(pk, circuit, witness, rng), public_inputs(circuit, witness)


def charged_and_executed(fn, *args):
    """The traces of ``fn(*args)`` as charged, and with the textbook route
    executed in place of each charge."""
    charged = oracle.trace(fn, *args)
    with oracle.executed_pairing():
        executed = oracle.trace(fn, *args)
    return charged, executed


class TestProtocols:
    def test_verify(self, groth16):
        vk, proof, publics = groth16
        wrong = [(publics[0] + 1) % vk.curve.fr.modulus] + publics[1:]
        for pubs, ok in [(publics, True), (wrong, False)]:
            charged, executed = charged_and_executed(verify, vk, proof, pubs)
            assert charged[0] is ok
            assert charged == executed

    @pytest.mark.parametrize("k", [1, 3])
    def test_batch_verify(self, groth16, k):
        vk, proof, publics = groth16
        charged, executed = charged_and_executed(
            lambda: batch_verify(vk, [(proof, publics)] * k, random.Random(k)))
        assert charged[0] is True
        assert charged == executed

    @both_curves
    def test_kzg_pairing_check(self, name):
        curve = CURVES[name]
        kzg = KZG(SRS.generate(curve, 4, random.Random(7)))
        coeffs = [1, 2, 3]
        (y,), witness = kzg.open_batch([coeffs], 5, 1)
        charged, executed = charged_and_executed(kzg.verify, kzg.commit(coeffs), 5, y, witness)
        assert charged[0] is True
        assert charged == executed
