"""Ablation — CRT big-integer representation (Key Takeaway 3).

The paper recommends re-representing big integers through the Chinese
Remainder Theorem "converting bigint numbers to a set of int numbers,
increasing parallel computation".  This test quantifies exactly that on
our field sizes: the dependency critical path of one multiplication
collapses from a limbs^2 carry chain to a single lane-parallel word
multiply, at the cost of a reconstruction step when leaving the domain.
"""

from repro.fields import BLS12_381_FQ, BN254_FQ
from repro.fields.crt import RNSContext
from repro.harness.report import render_table


def test_ablation_crt_parallelism():
    contexts = {f.name: RNSContext(f) for f in (BN254_FQ, BLS12_381_FQ)}

    rows = []
    for name, ctx in contexts.items():
        cost = ctx.cost_summary()
        rows.append([
            name, ctx.field.limbs, cost["lanes"],
            cost["direct_word_muls"], cost["direct_critical_path_muls"],
            cost["rns_word_muls"], cost["rns_critical_path_muls"],
            cost["reconstruction_word_ops"],
        ])
    print()
    print(render_table(
        ["field", "limbs", "CRT lanes", "direct muls", "direct path",
         "CRT muls", "CRT path", "reconstruct ops"],
        rows, title="[Ablation-CRT] one multiplication, direct vs CRT lanes",
    ))

    for name, ctx in contexts.items():
        # Correctness on this field.
        import random

        r = random.Random(5)
        for _ in range(5):
            x, y = ctx.field.rand(r), ctx.field.rand(r)
            assert ctx.field_mul(x, y) == ctx.field.mul(x, y), name
        cost = ctx.cost_summary()
        # Key Takeaway 3's claim: the critical path collapses (>=16x here),
        # enabling lane-parallel hardware.
        speedup = cost["direct_critical_path_muls"] / cost["rns_critical_path_muls"]
        assert speedup >= 16, name
        # And the total multiply count does not explode.
        assert cost["rns_word_muls"] <= cost["direct_word_muls"], name
