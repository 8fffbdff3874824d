"""Table III — maximum memory bandwidth per stage (avg over CPUs + sizes).

Paper: proving 25.0 / setup 23.4 / compile 10.3 / verifying 5.2 /
witness 2.7 GB/s on BN (BLS similar).  Claims asserted:

- proving and setup demand the highest bandwidth (Key Takeaway 2);
- both are roughly 2x the compile stage;
- witness is the lowest; verifying sits just above it.
"""

from repro.harness.experiments import table3_bandwidth


def test_table3_bandwidth(sweep):
    result = table3_bandwidth(sweep)
    bw = result.extras["bandwidth"]

    for ec in ("BN", "BLS"):
        col = {stage: bw[(ec, stage)] for stage in
               ("compile", "setup", "witness", "proving", "verifying")}
        # Proving tops the table; setup right behind.
        assert col["proving"] == max(col.values()), (ec, col)
        assert col["setup"] > col["compile"], ec
        # Proving at least ~1.2x compile (paper: ~2.4x).
        assert col["proving"] > 1.2 * col["compile"], ec
        # Witness is the lowest consumer.
        assert col["witness"] == min(col.values()), (ec, col)
        assert col["verifying"] > col["witness"], ec
        # Magnitudes: single-digit to low-double-digit GB/s, under the
        # fastest machine's 89.6 GB/s ceiling.
        assert all(0 < v < 89.6 for v in col.values()), ec
