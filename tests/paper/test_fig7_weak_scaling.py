"""Fig. 7 — weak scaling on the i9 (threads and constraints double together).

Paper claims asserted:

- witness and verifying show an approximately linear (or better)
  Speedup_WS — their execution time is independent of the constraint
  count, so the scaling factor drives the curve;
- proving is more (weak-)scalable than setup as size grows;
- setup's curve flattens early (its serial G2/serialization work grows
  with the problem).
"""

from repro.harness.experiments import fig7_weak_scaling


def test_fig7_weak_scaling(sweep):
    result = fig7_weak_scaling(sweep)
    sp = result.extras["speedups"]
    pairs = result.extras["pairs"]
    top_n = pairs[-1][0]

    # Witness and verifying: at least linear in the scaling factor.
    for stage in ("witness", "verifying"):
        for n, _size in pairs[1:]:
            assert sp[stage][n] >= 0.9 * n, (stage, n)

    # Proving beats setup from the second doubling on (the first point is
    # fixed-cost dominated for both) and by >2x at the top of the ladder.
    for n, _size in pairs[2:]:
        assert sp["proving"][n] > sp["setup"][n], n
    assert sp["proving"][top_n] > 2 * sp["setup"][top_n]

    # Setup flattens: its last doubling gains <15%.
    n_prev = pairs[-2][0]
    assert sp["setup"][top_n] / sp["setup"][n_prev] < 1.15

    # Proving is still growing at the end of the ladder.
    assert sp["proving"][top_n] / sp["proving"][n_prev] > 1.25

    # Baselines are exactly 1.
    for stage, curve in sp.items():
        assert abs(curve[1] - 1.0) < 1e-9, stage
