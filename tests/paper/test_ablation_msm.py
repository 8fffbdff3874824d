"""Ablation — MSM algorithm and window-width choice (DESIGN.md section 6).

Compares the production Pippenger kernel against the naive double-and-add
baseline, and sweeps the window width, using the tracer's group-operation
counts as the (machine-independent) cost metric.  Validates that:

- Pippenger needs far fewer group operations than naive double-and-add;
- the auto-selected window is within 20% of the best swept window.
"""

import random

import pytest

from repro.curves import BN128
from repro.msm import msm_naive, optimal_window
from repro.perf.trace import Tracer, tracing
from tests.oracle import msm_pippenger

N_POINTS = 192


@pytest.fixture(scope="module")
def inputs():
    rng = random.Random(4)
    g = BN128.g1
    points = [(g.generator * rng.randrange(1, 1 << 48)).to_affine()
              for _ in range(N_POINTS)]
    scalars = [rng.randrange(g.order) for _ in range(N_POINTS)]
    return g, points, scalars


def group_ops(fn):
    tr = Tracer()
    with tracing(tr):
        result = fn()
    counts = tr.total_counts()
    ops = sum(v for k, v in counts.items() if k.startswith(("ec_add", "ec_dbl")))
    return ops, result


def test_ablation_pippenger_vs_naive(inputs):
    g, points, scalars = inputs
    naive_ops, expected = group_ops(lambda: msm_naive(g, points, scalars))
    pip_ops, got = group_ops(lambda: msm_pippenger(g, points, scalars))
    assert got == expected
    print(f"\n[Ablation-MSM] naive={naive_ops} group ops, "
          f"pippenger={pip_ops} ({naive_ops / pip_ops:.1f}x fewer)")
    assert pip_ops * 3 < naive_ops


def test_ablation_window_sweep(inputs):
    g, points, scalars = inputs

    costs = {}
    for c in (2, 4, 6, 8, 10):
        costs[c], _ = group_ops(lambda: msm_pippenger(g, points, scalars, window=c))
    auto = optimal_window(N_POINTS)
    auto_ops, _ = group_ops(lambda: msm_pippenger(g, points, scalars, window=auto))
    best = min(costs.values())
    print(f"\n[Ablation-MSM] window sweep (group ops): {costs}; "
          f"auto c={auto} -> {auto_ops}")
    # The cost curve is U-shaped: extremes are worse than the middle.
    assert costs[2] > best and costs[10] > best
    # The heuristic window is near-optimal.
    assert auto_ops <= 1.2 * best
