"""Table VI — serial/parallel decomposition (Amdahl + Gustafson fits, i9).

Paper claims asserted:

- the proving stage has the highest parallel fraction under strong
  scaling (~72%, Key Takeaway 5) — higher than compile and setup;
- under weak scaling, witness and verifying fit to >90% parallel (their
  constant execution time makes Speedup_WS track the scaling factor);
- under weak scaling, proving has ~3x the parallelism of setup;
- all fits are valid percentages.
"""

from repro.harness.experiments import table6_parallelism


def test_table6_parallelism(sweep):
    result = table6_parallelism(sweep)
    fits = result.extras["fits"]

    for ec in ("BN", "BLS"):
        ss_par = {stage: fits[(stage, ec)]["ss_parallel"]
                  for stage in ("compile", "setup", "witness", "proving", "verifying")}
        ws_par = {stage: fits[(stage, ec)]["ws_parallel"]
                  for stage in ss_par}

        # Proving: the most SS-parallel stage (paper: 68.9-72.7%).
        assert ss_par["proving"] == max(ss_par.values()), (ec, ss_par)
        assert ss_par["proving"] > 60.0, ec
        # ... clearly ahead of compile and setup.
        assert ss_par["proving"] > ss_par["setup"] + 20, ec
        assert ss_par["proving"] > ss_par["compile"] + 20, ec

        # WS: witness and verifying fit to >90% parallel (paper: 92-99%).
        assert ws_par["witness"] > 90.0, ec
        assert ws_par["verifying"] > 90.0, ec

        # WS: proving ~3x setup's parallelism (paper: ~70% vs ~25%).
        assert ws_par["proving"] > 3 * ws_par["setup"], ec

        # Everything is a sane percentage and serial+parallel == 100.
        for stage in ss_par:
            row = fits[(stage, ec)]
            assert abs(row["ss_serial"] + row["ss_parallel"] - 100.0) < 1e-6
            assert abs(row["ws_serial"] + row["ws_parallel"] - 100.0) < 1e-6
            for v in row.values():
                assert 0.0 <= v <= 100.0
