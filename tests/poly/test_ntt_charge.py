"""Charged equals executed for the NTT (docs/KERNELS.md, "Charging a
reference").

Every transform computes its value by the raw-integer loop, and a traced
call is charged the per-operation passes from ``n`` and the label; the
scalings into and out of the transform are charged one ``field.mul`` an
element.  Each test holds that trace equal to the passes executed
(:func:`tests.oracle.executed_ntt`) — the value, the region tree with its
names, ``parallel`` flags, items, scales and every region's counts in
report order, the clock, the memory events with their stamps and the
address-space cursor (:func:`tests.oracle.full_trace`) — for ``ntt``,
``intt``, ``coset_ntt`` and ``coset_intt`` at ``n = 1 .. 2^11`` on both
curves' scalar fields.
"""

import random

import pytest

from repro.curves import BLS12_381, BN128
from repro.poly import EvaluationDomain
from repro.poly.ntt import coset_intt, coset_ntt, intt, ntt
from tests import oracle

SIZES = [1 << k for k in range(12)]


def charged_and_executed(fn, *args):
    """The full traces of ``fn(*args)`` as charged, and with the
    per-operation passes executed in place of each charge."""
    charged = oracle.full_trace(fn, *args)
    with oracle.executed_ntt():
        executed = oracle.full_trace(fn, *args)
    return charged, executed


@pytest.mark.parametrize("fn", [ntt, intt, coset_ntt, coset_intt],
                         ids=lambda fn: fn.__name__)
@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("curve", [BN128, BLS12_381], ids=["bn128", "bls12_381"])
def test_charged_is_executed(curve, n, fn):
    field = curve.fr
    rng = random.Random(f"{curve.name}:{n}")
    values = [rng.randrange(field.modulus) for _ in range(n)]
    domain = EvaluationDomain(field, n)
    charged, executed = charged_and_executed(fn, field, values, domain)
    assert charged == executed
    assert charged[0] == fn(field, values, domain)

