#!/usr/bin/env python3
"""Author a custom circuit with the DSL, prove it, then characterize it.

Builds a small "private credential" statement — *I know a preimage whose
MiMC digest is D, and my age is in [18, 128)* — proves it with Groth16,
and runs the four-analysis framework over its proving stage, showing the
methodology applies beyond the paper's exponentiation benchmark.

    python examples/custom_circuit.py
"""

import random

from repro.circuit import CircuitBuilder, compile_circuit, gadgets
from repro.curves import get_curve
from repro.groth16 import generate_witness, prove, public_inputs, setup, verify
from repro.perf.analysis import analyze_stage
from repro.perf.cache import LLCModel
from repro.perf.trace import Tracer, tracing


def build_credential_circuit(curve):
    b = CircuitBuilder("credential", curve.fr)
    secret = b.private_input("secret")
    age = b.private_input("age")
    min_age = b.public_input("min_age")

    # The credential digest is public; the preimage stays private.
    digest = gadgets.mimc_hash_chain(b, [secret, age])
    b.output(digest, "digest")

    # 18 <= age < 2^7, without revealing the age.
    gadgets.num_to_bits(b, age, 7)
    old_enough = gadgets.logical_not(b, gadgets.less_than(b, age, min_age, 7))
    b.assert_equal(old_enough, b.constant(1))
    return b


def main():
    curve = get_curve("bn128")
    builder = build_credential_circuit(curve)
    circuit = compile_circuit(builder)
    print(f"credential circuit: {circuit.r1cs!r}")

    rng = random.Random(7)
    pk, vk = setup(curve, circuit, rng)
    inputs = {"secret": 0xDEADBEEF, "age": 42, "min_age": 18}
    witness = generate_witness(circuit, inputs)
    assert circuit.r1cs.is_satisfied(witness)
    proof = prove(pk, circuit, witness, rng)
    publics = public_inputs(circuit, witness)
    assert verify(vk, proof, publics)
    print(f"proved age >= 18 without revealing age; digest = {publics[1] % 10**12}... "
          f"({proof.size_bytes()} byte proof)")

    # An under-age witness cannot satisfy the system.
    bad = generate_witness(circuit, {**inputs, "age": 12})
    assert not circuit.r1cs.is_satisfied(bad)
    print("under-age witness rejected by the constraint system")

    # -- characterize this circuit's proving stage ---------------------------
    tracer = Tracer(label="credential/proving", mem_events=LLCModel())
    with tracing(tracer):
        prove(pk, circuit, witness, rng)
    profile = analyze_stage(tracer, stage="proving", curve="bn128",
                            size=circuit.n_constraints)
    mix = profile.opcode_mix
    print(f"\nproving-stage characterization of the custom circuit:")
    print(f"  instructions : {profile.instructions:.3g}")
    print(f"  opcode mix   : {mix.compute_pct:.1f}/{mix.control_pct:.1f}/"
          f"{mix.data_pct:.1f} (comp/ctrl/data) -> {mix.intensive}-intensive")
    print(f"  top hotspot  : {profile.functions.top(1)[0].function} "
          f"({100 * profile.functions.top(1)[0].share:.1f}% of CPU time)")
    for cpu in ("i7-8650U", "i9-13900K"):
        td = profile.view(cpu).topdown
        print(f"  {cpu:10s} : {td.classification} "
              f"(FE {td.frontend:.0%}, BE {td.backend:.0%})")


if __name__ == "__main__":
    main()
