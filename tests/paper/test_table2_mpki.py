"""Table II — LLC load MPKI per stage (max across constraint sizes).

Paper claims asserted:

- the witness and proving stages show the highest MPKIs (paper maxima:
  1.03 witness on i9-BLS, 0.48 proving on i5-BN);
- the setup stage has the lowest MPKI of all stages (paper: 0.03-0.08);
- magnitudes land in the sub-1 MPKI regime the paper reports.
"""

from repro.harness.experiments import table2_mpki

CPUS = ("i7", "i5", "i9")
CURVES = ("BN", "BLS")


def test_table2_mpki(sweep):
    result = table2_mpki(sweep)
    mpki = result.extras["mpki"]

    for cpu in CPUS:
        for ec in CURVES:
            col = {stage: mpki[(stage, cpu, ec)] for stage in
                   ("compile", "setup", "witness", "proving", "verifying")}
            # Setup is the smallest everywhere.
            assert col["setup"] == min(col.values()), (cpu, ec, col)
            # Witness or proving tops the column.
            top = max(col, key=col.get)
            assert top in ("witness", "proving"), (cpu, ec, col)
            # Setup at least 5x below the leader (paper: ~20x).
            assert col["setup"] * 5 < col[top], (cpu, ec)

    # Magnitude sanity: everything in the paper's 0.0x .. ~1 MPKI regime.
    assert all(0.0 <= v < 2.0 for v in mpki.values())
    # The global maximum is a witness or proving cell, like the paper's 1.03.
    stage_of_max = max(mpki, key=mpki.get)[0]
    assert stage_of_max in ("witness", "proving")
