"""Lazy-reduction invariants (docs/KERNELS.md).

The kernel speed campaign moved the field accumulation hot loops (R1CS row
evaluation, frozen witness combinations, QAP column sums) onto :meth:`PrimeField.lincomb`, which sums exact integer
products and reduces once.  Exactness of Python integers makes that
*provably* identical to the per-term ``%`` loop — these tests pin it
anyway, together with the traced-op-count equivalence the cost model
relies on.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.fields import BN254_FR
from repro.fields.prime_field import PrimeField

FR = BN254_FR
SMALL = PrimeField(97, "f97")


def _foldl_reduced(field, pairs, const=0):
    """The per-term-reduced loop lincomb replaces."""
    acc = field.reduce(const)
    for c, v in pairs:
        acc = field.add(acc, field.mul(c, v))
    return acc


class TestLincomb:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_matches_per_term_reduction(self, data):
        field = data.draw(st.sampled_from([FR, SMALL]))
        # Coefficients and values beyond [0, p) on purpose: callers feed
        # raw builder constants; reduction must commute either way.
        span = st.integers(min_value=-(field.modulus * 3),
                           max_value=field.modulus * 3)
        pairs = data.draw(st.lists(st.tuples(span, span), max_size=24))
        const = data.draw(span)
        assert (field.lincomb(pairs, const)
                == _foldl_reduced(field, pairs, const))

    def test_empty_and_const_only(self):
        assert FR.lincomb([]) == 0
        assert FR.lincomb([], const=FR.modulus + 5) == 5

    def test_result_is_canonical(self):
        out = FR.lincomb([(FR.modulus - 1, FR.modulus - 1)] * 8)
        assert 0 <= out < FR.modulus

    def test_traced_counts_match_per_op_loop(self):
        from repro.perf.trace import Tracer, tracing

        pairs = [(3, 5), (7, 11), (13, 17)]

        def counts(fn):
            tracer = Tracer()
            with tracing(tracer):
                fn()
            return dict(tracer.root.counts)

        lazy = counts(lambda: FR.lincomb(pairs))
        eager = counts(lambda: _foldl_reduced(FR, pairs))
        # The cost-model contract: the lazy path reports exactly the
        # per-term mul/add primitives the eager loop it replaced reported.
        mul_ops = [op for op in eager if "mul" in op]
        add_ops = [op for op in eager if "add" in op]
        assert mul_ops and add_ops
        for op in mul_ops + add_ops:
            assert lazy.get(op) == eager[op], op

    def test_generator_input(self):
        pairs = [(i, i + 1) for i in range(10)]
        assert (FR.lincomb((c, v) for c, v in pairs)
                == FR.lincomb(list(pairs)))


class TestEvalLcLazyReduction:
    def test_r1cs_row_matches_manual_sum(self):
        from repro.circuit.r1cs import R1CS

        r = random.Random(5)
        n = 12
        system = R1CS(FR, n, [0], [])
        row = {r.randrange(n): r.randrange(FR.modulus) for _ in range(6)}
        witness = [r.randrange(FR.modulus) for _ in range(n)]
        want = 0
        for wire, coeff in row.items():
            want = (want + coeff * witness[wire]) % FR.modulus
        assert system.eval_lc(row, witness) == want
