"""Table V — opcode-class percentages (DynamoRIO view).

Paper (BN/BLS averages): setup 42.6/20.2/37.2, proving 41.0/22.7/36.4 and
verifying 46.7/24.8/28.5 are compute-intensive; compile (32.7/29.0/38.3)
is data-flow intensive; witness (36.0/29.5/34.6) is the most control-flow
intensive stage.  Key Takeaway 4: proving has >30% data-movement opcodes.
"""

from repro.harness.experiments import table5_opcode_mix
from repro.workflow import STAGES


def test_table5_opcode_mix(sweep):
    result = table5_opcode_mix(sweep)
    mix = result.extras["mix"]

    for ec in ("BN", "BLS"):
        ctrl = {stage: mix[(ec, stage)][1] for stage in STAGES}
        data = {stage: mix[(ec, stage)][2] for stage in STAGES}

        # setup / proving / verifying: compute is the dominant class.
        for stage in ("setup", "proving", "verifying"):
            c, t, d = mix[(ec, stage)]
            assert c == max(c, t, d), (ec, stage)
            assert 35.0 <= c <= 60.0, (ec, stage, c)

        # compile: data-flow intensive.
        c, t, d = mix[(ec, "compile")]
        assert d == max(c, t, d), (ec, "compile")
        assert d > 35.0

        # witness: the most control-flow-heavy stage of the five.
        assert ctrl["witness"] == max(ctrl.values()), ec
        assert ctrl["witness"] > 25.0

        # Key Takeaway 4: proving has >30% data-movement instructions.
        assert data["proving"] > 30.0, ec

        # Each row is a percentage distribution.
        for stage in STAGES:
            assert abs(sum(mix[(ec, stage)]) - 100.0) < 0.5, (ec, stage)


def test_table5_curves_similar(sweep):
    """BN vs BLS mixes differ by a few points at most (paper Table V)."""
    result = table5_opcode_mix(sweep)
    mix = result.extras["mix"]
    for stage in STAGES:
        bn = mix[("BN", stage)]
        bls = mix[("BLS", stage)]
        for a, b in zip(bn, bls):
            assert abs(a - b) < 15.0, stage
