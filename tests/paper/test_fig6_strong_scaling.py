"""Fig. 6 — strong scaling on the i9 (Speedup_SS vs thread count).

Paper claims asserted:

- setup and proving scale best at the largest constraint size;
- the proving stage keeps gaining past 24 threads (its curve does not
  saturate where the others do);
- compile and witness saturate early (~2x) and then *regress* at high
  thread counts for small circuits (the paper's 2^10-at-24-threads
  observation);
- the verifying stage's curve is (near-)flat and independent of size.
"""

from repro.harness.experiments import fig6_strong_scaling


def test_fig6_strong_scaling(sweep, sizes):
    result = fig6_strong_scaling(sweep)
    sp = result.extras["speedups"]
    threads = result.extras["threads"]
    big, small = sizes[-1], sizes[0]

    # Proving scales far better than every other stage at the top size.
    best = {stage: max(sp[(stage, big)].values())
            for stage in ("compile", "setup", "witness", "proving", "verifying")}
    assert best["proving"] == max(best.values())
    assert best["proving"] > 4.0
    assert best["proving"] > 2 * best["compile"]

    # Proving keeps gaining past 24 threads; paper: "does not saturate".
    assert sp[("proving", big)][32] > sp[("proving", big)][16]

    # Compile and witness saturate low and regress at high thread counts
    # for small circuits.
    for stage in ("compile", "witness"):
        curve = sp[(stage, small)]
        assert max(curve.values()) < 3.0, stage
        assert curve[32] < max(curve.values()), stage
        assert curve[24] < curve[12], stage

    # Verifying: modest, size-independent curve.
    v_small, v_big = sp[("verifying", small)], sp[("verifying", big)]
    for n in threads:
        assert abs(v_small[n] - v_big[n]) / max(v_big[n], 1e-9) < 0.05, n

    # Speedup at one thread is exactly 1 everywhere.
    for key, curve in sp.items():
        assert abs(curve[1] - 1.0) < 1e-9, key
