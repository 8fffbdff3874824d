"""Extension — accelerator what-if projections (paper Section I).

The paper motivates whole-protocol analysis with PipeZK: ~200x speedup on
its two modules, but only ~5x on the targeted protocol.  This test runs
the same arithmetic over our traced profiles for three accelerator shapes
and asserts the gap the paper reports: module speedups in the hundreds
collapse to single-digit protocol speedups while untouched stages become
the bottleneck.
"""

from repro.harness.report import render_table
from repro.perf.accel import AcceleratorSpec, project_protocol
from repro.harness.runner import profile_run

ACCELERATORS = [
    AcceleratorSpec(
        "PipeZK-like ASIC (MSM+NTT 200x)",
        {"bigint": 200.0, "msm": 200.0, "fft": 200.0, "ec": 200.0},
        offload_overhead_fraction=0.02,
    ),
    AcceleratorSpec(
        "GPU offload (crypto 25x)",
        {"bigint": 25.0, "msm": 25.0, "fft": 25.0, "ec": 25.0},
        offload_overhead_fraction=0.05,
    ),
    AcceleratorSpec(
        "CRT bigint unit (bigint 8x)",
        {"bigint": 8.0},
        offload_overhead_fraction=0.01,
    ),
]


def test_accel_whatif():
    profiles = profile_run("bn128", 512)

    reports = [project_protocol(profiles, spec) for spec in ACCELERATORS]

    rows = []
    for report in reports:
        proving = report.per_stage["proving"]
        rows.append([
            report.accelerator,
            proving.module_speedup,
            proving.stage_speedup,
            report.protocol_speedup,
            report.dominant_residual_stage,
        ])
    print()
    print(render_table(
        ["accelerator", "module x", "proving-stage x", "protocol x",
         "new bottleneck"],
        rows, title="[Accel] What-if projections over traced profiles",
        floatfmt=".1f",
    ))

    pipezk, gpu, crt = reports
    # The headline gap: hundreds-x modules, single/low-double-digit protocol.
    assert pipezk.per_stage["proving"].module_speedup > 20
    assert pipezk.protocol_speedup < 30
    assert pipezk.protocol_speedup < pipezk.per_stage["proving"].module_speedup / 2
    # Monotonicity across accelerator strength.
    assert pipezk.protocol_speedup > gpu.protocol_speedup > crt.protocol_speedup
    # Once crypto is accelerated, a non-crypto stage dominates.
    assert pipezk.dominant_residual_stage in ("witness", "compile")
