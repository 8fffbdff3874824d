"""Fig. 5 — loads and stores per stage vs constraint size.

Paper claims asserted:

- setup and proving require orders of magnitude more loads than the
  witness and verifying stages (paper: ~1000x and ~100x at 2^10..2^18;
  the gap grows with size — at our scaled ladder we assert the gap and its
  growth rather than the end-scale magnitudes);
- witness and verifying loads/stores stay (near-)constant across sizes;
- loads and stores follow similar trends in most stages, with setup the
  outlier at roughly an order of magnitude more loads than stores.
"""

from repro.harness.experiments import fig5_loads_stores


def test_fig5_loads_stores(sweep, sizes):
    result = fig5_loads_stores(sweep)
    loads = result.extras["loads"]
    stores = result.extras["stores"]
    small, big = sizes[0], sizes[-1]

    # Setup and proving dwarf witness/verifying at the top of the ladder.
    assert loads[("setup", big)] > 20 * loads[("witness", big)]
    assert loads[("setup", big)] > 10 * loads[("verifying", big)]
    assert loads[("proving", big)] > 5 * loads[("witness", big)]
    # ... and the gap widens with size (the paper's 1000x is the 2^18 end).
    ratio_small = loads[("setup", small)] / loads[("witness", small)]
    ratio_big = loads[("setup", big)] / loads[("witness", big)]
    assert ratio_big > 5 * ratio_small

    # Witness and verifying are flat across the sweep (<10% drift).
    for stage in ("witness", "verifying"):
        lo, hi = loads[(stage, small)], loads[(stage, big)]
        assert abs(hi - lo) / max(hi, lo) < 0.10, stage
        lo, hi = stores[(stage, small)], stores[(stage, big)]
        assert abs(hi - lo) / max(hi, lo) < 0.10, stage

    # Setup and proving grow steeply with size.
    assert loads[("setup", big)] > 8 * loads[("setup", small)]
    assert loads[("proving", big)] > 8 * loads[("proving", small)]

    # Load/store ratios: setup is the load-dominated outlier.
    setup_ratio = loads[("setup", big)] / stores[("setup", big)]
    assert setup_ratio > 4.0
    for stage in ("proving", "verifying", "witness", "compile"):
        ratio = loads[(stage, big)] / stores[(stage, big)]
        assert ratio < setup_ratio, stage
        assert ratio < 4.0, stage
