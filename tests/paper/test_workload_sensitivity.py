"""Extension — does the characterization generalize beyond the
paper's exponentiation circuit?

The paper argues its strategies "offer insights to guide future designs"
for other ZKP programs (Section IV-A).  This test re-runs the framework
on two different workload classes — a Poseidon hash chain and a batch of
bit-decomposition range checks — and asserts that the paper's stage-level
conclusions are workload-independent:

- proving stays compute-intensive, bigint-dominated, backend-bound on
  the i9 and highly parallel;
- witness stays front-end bound everywhere and the most control-heavy;
- setup stays the load-dominated heavyweight with the lowest MPKI.
"""

import pytest

from repro.harness.report import render_table
from repro.harness.runner import profile_run

SIZE = 512
WORKLOADS = ("exponentiate", "poseidon", "range")


def test_workload_sensitivity():
    by_workload = {w: profile_run("bn128", SIZE, workload=w) for w in WORKLOADS}

    rows = []
    for w, profs in by_workload.items():
        proving = profs["proving"]
        witness = profs["witness"]
        rows.append([
            w,
            proving.opcode_mix.intensive,
            proving.functions.top(1)[0].function,
            proving.view("i9-13900K").topdown.classification,
            f"{100 * proving.split.parallel_fraction:.0f}%",
            witness.view("i9-13900K").topdown.classification,
            f"{witness.opcode_mix.control_pct:.1f}%",
        ])
    print()
    print(render_table(
        ["workload", "prove mix", "prove hotspot", "prove i9 topdown",
         "prove par", "witness i9 topdown", "witness ctrl%"],
        rows, title=f"[Sensitivity] characterization across workloads (n~{SIZE})",
    ))

    for w, profs in by_workload.items():
        proving, witness, setup = profs["proving"], profs["witness"], profs["setup"]
        # Proving conclusions hold for every workload.
        assert proving.opcode_mix.intensive == "compute", w
        assert proving.functions.top(1)[0].function == "bigint", w
        assert proving.view("i9-13900K").topdown.classification == "backend", w
        assert proving.split.parallel_fraction > 0.6, w
        # Witness conclusions hold.
        for cpu in ("i7-8650U", "i5-11400", "i9-13900K"):
            assert witness.view(cpu).topdown.classification == "frontend", (w, cpu)
        ctrl = {s: profs[s].opcode_mix.control_pct for s in profs}
        assert ctrl["witness"] == max(ctrl.values()), w
        # Setup conclusions hold.
        assert setup.loads > 5 * witness.loads, w
        for cpu in ("i7-8650U", "i5-11400", "i9-13900K"):
            mpki = {s: profs[s].view(cpu).load_mpki for s in profs}
            assert mpki["setup"] == min(mpki.values()), (w, cpu)


def test_workload_registry_rejects_unknown():
    with pytest.raises(ValueError, match="unknown workload"):
        profile_run("bn128", 64, workload="sha3")
