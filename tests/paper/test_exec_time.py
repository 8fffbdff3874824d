"""E0 — execution-time breakdown (Section IV-B).

Paper: "the setup (76.1%) is the most time-consuming stage, followed by the
proving (13.4%) stage across all constraint sizes".

Shape asserted here: setup is the largest stage and proving the largest of
the remaining size-scaling stages.  The absolute shares deviate (our
fixed-base setup is more efficient than snarkjs' ptau pipeline; see
EXPERIMENTS.md) but the ordering — the paper's actionable finding — holds.
"""

from repro.harness.experiments import exec_time_breakdown


def test_exec_time_breakdown(sweep):
    result = exec_time_breakdown(sweep)
    shares = result.extras["shares"]

    # Setup dominates everything.
    assert shares["setup"] == max(shares.values())
    # Proving is the second of the stages whose cost scales with the
    # circuit (compile/setup/proving) and beats compile handily.
    assert shares["proving"] > shares["compile"]
    assert shares["setup"] > 2 * shares["compile"]
    # Sanity: a complete partition.
    assert abs(sum(shares.values()) - 100.0) < 1e-6
