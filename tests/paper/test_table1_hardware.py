"""Table I — hardware configuration of the experimental setup.

Not a measurement: this regenerates the machine-description table the
analyses run against and checks it against the paper's published
specifications (cores, SMT, DRAM type/channels/bandwidth, LLC).
"""

from repro.harness.report import render_table
from repro.perf.cpu import ALL_CPUS


def test_table1_hardware():
    rows = []
    for spec in ALL_CPUS:
        rows.append([
            spec.name, spec.cores_perf, spec.cores_eff, spec.smt_threads,
            spec.dram_type, spec.dram_channels, spec.mem_bw_gbps,
            f"{spec.llc_kib // 1024} MiB",
        ])
    text = render_table(
        ["CPU", "#Cores (Perf)", "#Cores (Eff)", "#SMT", "Type",
         "#DRAM Ch", "Mem BW (GB/s)", "LLC"],
        rows, title="[Table1] Hardware configuration (modeled)",
    )
    print()
    print(text)

    by_name = {r[0]: r for r in rows}
    # Paper Table I values.
    assert by_name["i7-8650U"][1:4] == [4, 0, 8]
    assert by_name["i5-11400"][1:4] == [6, 0, 12]
    assert by_name["i9-13900K"][1:4] == [8, 16, 32]
    assert by_name["i7-8650U"][4:7] == ["LPDDR3", 2, 34.1]
    assert by_name["i5-11400"][4:7] == ["DDR4", 1, 17.0]
    assert by_name["i9-13900K"][4:7] == ["DDR5", 4, 89.6]
    assert by_name["i7-8650U"][7] == "8 MiB"
    assert by_name["i5-11400"][7] == "12 MiB"
    assert by_name["i9-13900K"][7] == "36 MiB"
