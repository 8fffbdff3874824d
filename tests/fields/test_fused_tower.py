"""The fused ``Fp12`` kernels against their per-operation formulation.

``Fp12.__mul__``, ``square``, ``mul_by_line`` and ``cyclotomic_square`` are
each one function over the twelve integers with one reduction a coefficient
(docs/KERNELS.md, "Pairing kernels"); ``tests/oracle.py`` keeps the
formulation they replace, one ``Fp6`` / ``f2_*`` call a step.  Both compute
the same polynomial in the coefficients, so the contract is equality of the
output tuples on any input — zero, one, sparse and edge elements, and the
cyclotomic ones the final exponentiation feeds ``cyclotomic_square`` — and
equality of the traced primitive counts, which the modeled artifacts rest on.
``REPRO_KERNEL_FULL=1`` widens the examples.
"""

import os
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.fields.extensions import Fp12
from repro.fields.params import BLS12_381_TOWER, BN254_TOWER
from repro.perf.trace import Tracer, tracing
from tests import oracle

FULL = os.environ.get("REPRO_KERNEL_FULL") == "1"
EXAMPLES = 400 if FULL else 40

TOWERS = {"bn128": BN254_TOWER, "bls12_381": BLS12_381_TOWER}

#: Parametrization, not a fixture: hypothesis rejects function-scoped fixtures.
both_towers = pytest.mark.parametrize(
    "tower", [TOWERS[name] for name in sorted(TOWERS)], ids=sorted(TOWERS))


def fp12s(tower):
    """Zero, one, and elements whose ``Fp2`` coefficients are each uniform,
    an edge pair or zero (so sparse elements come up often)."""
    p = tower.fq.modulus
    z = (0, 0)
    component = st.one_of(st.integers(0, p - 1), st.sampled_from([0, 1, p - 1]))
    pair = st.one_of(st.tuples(component, component), st.just(z))
    triple = st.tuples(pair, pair, pair)
    return st.one_of(
        st.just(Fp12(tower, (z, z, z), (z, z, z))),
        st.just(tower.fp12_one()),
        st.builds(lambda lo, hi: Fp12(tower, lo, hi), triple, triple),
    )


def fp2s(tower):
    p = tower.fq.modulus
    component = st.one_of(st.integers(0, p - 1), st.sampled_from([0, 1, p - 1]))
    return st.tuples(component, component)


def same(a, b):
    return (a.c0, a.c1) == (b.c0, b.c1)


def cyclotomic(tower, seed):
    """``f^((p^6 - 1)(p^2 + 1))`` of a random non-zero ``f``: an element
    of the cyclotomic subgroup, where the final exponentiation squares."""
    rng = random.Random(seed)
    p = tower.fq.modulus
    f = Fp12(tower, *(tuple((rng.randrange(1, p), rng.randrange(p)) for _ in range(3))
                      for _ in range(2)))
    f1 = f.conjugate() * f.inverse()
    return f1.frobenius().frobenius() * f1


@both_towers
class TestFusedEqualsOracle:
    @settings(max_examples=EXAMPLES, deadline=None)
    @given(data=st.data())
    def test_mul_and_square(self, tower, data):
        f, g = data.draw(fp12s(tower)), data.draw(fp12s(tower))
        assert same(f * g, oracle.fp12_mul(f, g))
        assert same(f.square(), oracle.fp12_square(f))
        assert same(f.square(), f * f)

    @settings(max_examples=EXAMPLES, deadline=None)
    @given(data=st.data(), k=st.sampled_from([0, 1]))
    def test_mul_by_line(self, tower, data, k):
        f = data.draw(fp12s(tower))
        s = data.draw(st.one_of(st.integers(0, tower.fq.modulus - 1), st.just(0)))
        l0, l1 = data.draw(fp2s(tower)), data.draw(fp2s(tower))
        assert same(f.mul_by_line(s, l0, l1, k), oracle.fp12_mul_by_line(f, s, l0, l1, k))

    @settings(max_examples=EXAMPLES, deadline=None)
    @given(data=st.data())
    def test_cyclotomic_square_on_any_element(self, tower, data):
        # Off the subgroup the formula is not a square, but both sides
        # evaluate the same polynomial.
        f = data.draw(fp12s(tower))
        assert same(f.cyclotomic_square(), oracle.fp12_cyclotomic_square(f))

    @settings(max_examples=EXAMPLES // 4, deadline=None)
    @given(seed=st.integers(0, 2**32))
    def test_cyclotomic_square_on_cyclotomic_elements(self, tower, seed):
        g = cyclotomic(tower, seed)
        fused = g.cyclotomic_square()
        assert same(fused, oracle.fp12_cyclotomic_square(g))
        assert same(fused, g.square())


def _traced(fn):
    tracer = Tracer()
    with tracing(tracer):
        fn()
    return dict(tracer.total_counts()), tracer.clock


@both_towers
@pytest.mark.parametrize("kernel", ["mul", "square", "line0", "line1", "cyclotomic_square"])
def test_traced_counts_are_the_oracle_counts(tower, kernel):
    rng = random.Random(kernel)
    p = tower.fq.modulus
    f, g = (Fp12(tower, *(tuple((rng.randrange(p), rng.randrange(p)) for _ in range(3))
                          for _ in range(2))) for _ in range(2))
    s, l0, l1 = rng.randrange(p), (rng.randrange(p), 7), (3, rng.randrange(p))
    fused, reference = {
        "mul": (lambda: f * g, lambda: oracle.fp12_mul(f, g)),
        "square": (f.square, lambda: oracle.fp12_square(f)),
        "line0": (lambda: f.mul_by_line(s, l0, l1, 0),
                  lambda: oracle.fp12_mul_by_line(f, s, l0, l1, 0)),
        "line1": (lambda: f.mul_by_line(s, l0, l1, 1),
                  lambda: oracle.fp12_mul_by_line(f, s, l0, l1, 1)),
        "cyclotomic_square": (f.cyclotomic_square,
                              lambda: oracle.fp12_cyclotomic_square(f)),
    }[kernel]
    counts = _traced(fused)
    assert counts == _traced(reference)
    assert counts[1] > 0
