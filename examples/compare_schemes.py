#!/usr/bin/env python3
"""Compare the two proof systems on the same statement.

Compiles one builder (knowledge of ``x`` with ``y = x^n``), proves the
compiled circuit both ways — PLONK lowers the same R1CS Groth16 sets up
from and takes the same witness and public inputs — and contrasts the
trade-offs the paper's background section describes:

- **Groth16**: general statements, constant 3-element proofs, per-circuit
  trusted setup — the scheme the paper profiles;
- **PLONK**: general statements, universal setup, bigger/slower proofs —
  the alternative snarkjs scheme the paper cites as ~2x slower at proving.

    python examples/compare_schemes.py [n_gates]
"""

import random
import sys
import time

from repro.circuit import CircuitBuilder, compile_circuit, gadgets
from repro.curves import get_curve
from repro.groth16 import generate_witness, prove, public_inputs, setup, verify
from repro.harness.report import render_table
from repro.plonk import plonk_prove, plonk_setup, plonk_verify


def main():
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 64
    curve = get_curve("bn128")
    rng = random.Random(13)
    rows = []

    b = CircuitBuilder("pow", curve.fr)
    b.output(gadgets.exponentiate(b, b.private_input("x"), n), "y")
    circuit = compile_circuit(b)
    witness = generate_witness(circuit, {"x": 0xC0FFEE})
    publics = public_inputs(circuit, witness)

    # -- Groth16 ------------------------------------------------------------------
    t0 = time.perf_counter()
    pk, vk = setup(curve, circuit, rng)
    t_setup = time.perf_counter() - t0
    t0 = time.perf_counter()
    gproof = prove(pk, circuit, witness, rng)
    t_prove = time.perf_counter() - t0
    t0 = time.perf_counter()
    assert verify(vk, gproof, publics)
    t_verify = time.perf_counter() - t0
    rows.append(["Groth16", "per-circuit", gproof.size_bytes(),
                 t_setup, t_prove, t_verify])

    # -- PLONK -----------------------------------------------------------------------
    t0 = time.perf_counter()
    pre = plonk_setup(curve, circuit, rng)
    t_setup = time.perf_counter() - t0
    t0 = time.perf_counter()
    pproof = plonk_prove(pre, witness, rng)
    t_prove = time.perf_counter() - t0
    t0 = time.perf_counter()
    assert plonk_verify(pre, pproof, publics)
    t_verify = time.perf_counter() - t0
    rows.append(["PLONK", "universal", pproof.size_bytes(),
                 t_setup, t_prove, t_verify])

    print()
    print(render_table(
        ["scheme", "trusted setup", "proof bytes",
         "setup s", "prove s", "verify s"],
        rows,
        title=f"Proof-system comparison, y = x^{n} on bn128",
        floatfmt=".3f",
    ))
    print("\nGroth16's small constant proofs explain its de-facto-standard "
          "status (paper Section IV-A); PLONK trades proving speed for the "
          "universal setup.")


if __name__ == "__main__":
    main()
