"""Ablation — NTT pipeline vs naive Lagrange interpolation (DESIGN.md §6).

The prover's quotient construction uses an O(n log n) NTT round trip; the
alternative is O(n^2) Lagrange interpolation.  This test measures both on
the same column-interpolation task and checks the crossover is decisively
in the NTT's favour at protocol sizes, while producing identical results.
"""

import random
import time

import pytest

from repro.fields import BN254_FR
from repro.poly import EvaluationDomain, Polynomial, intt

FR = BN254_FR


@pytest.fixture(scope="module")
def workload():
    n = 64
    domain = EvaluationDomain(FR, n)
    rng = random.Random(5)
    evals = [FR.rand(rng) for _ in range(n)]
    return domain, evals


def interpolate_ntt(domain, evals):
    return Polynomial(FR, intt(FR, evals, domain))


def interpolate_lagrange(domain, evals):
    return Polynomial.interpolate(FR, list(zip(domain.elements(), evals)))


def test_ablation_ntt_matches_lagrange(workload):
    domain, evals = workload
    via_ntt = interpolate_ntt(domain, evals)
    via_lagrange = interpolate_lagrange(domain, evals)
    assert via_ntt == via_lagrange


def test_ablation_ntt_speedup(workload):
    domain, evals = workload

    t0 = time.perf_counter()
    interpolate_ntt(domain, evals)
    t_ntt = time.perf_counter() - t0
    t0 = time.perf_counter()
    interpolate_lagrange(domain, evals)
    t_lagrange = time.perf_counter() - t0
    print(f"\n[Ablation-NTT] n=64: ntt={t_ntt * 1e3:.2f} ms, "
          f"lagrange={t_lagrange * 1e3:.1f} ms "
          f"({t_lagrange / t_ntt:.0f}x)")
    # O(n^2) vs O(n log n): an order of magnitude already at n=64.
    assert t_lagrange > 5 * t_ntt
