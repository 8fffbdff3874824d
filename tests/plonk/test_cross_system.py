"""One circuit, both proof systems: Groth16 and PLONK agree on every
built-in circuit small enough to prove here.

Both set up from the same compiled circuit, prove the same
``generate_witness`` vector and verify the same ``public_inputs``; the
verdicts must match on the honest publics and on a shifted one.
"""

import random

import pytest

from repro import groth16
from repro.circuit import compile_circuit
from repro.curves import BLS12_381, BN128
from repro.harness.circuits import lint_targets
from repro.plonk import plonk_prove, plonk_setup, plonk_verify
from repro.plonk.circuit import compile_plonk

#: Largest lowered table proved here; ``poseidon`` (2048),
#: ``hash_preimage_4`` and ``gadget_zoo_4`` (1024) are left out for time.
MAX_N = 256


def _cases():
    cases = []
    for curve, names in ((BN128, None), (BLS12_381, {"exponentiate"})):
        for name, (builder, inputs, _) in lint_targets(curve).items():
            circuit = compile_circuit(builder)
            if (names is None or name in names) and compile_plonk(circuit).n <= MAX_N:
                cases.append(pytest.param(curve, circuit, inputs,
                                          id=f"{curve.name}-{name}"))
    return cases


@pytest.mark.parametrize("curve, circuit, inputs", _cases())
def test_groth16_and_plonk_agree(curve, circuit, inputs):
    witness = groth16.generate_witness(circuit, inputs)
    publics = groth16.public_inputs(circuit, witness)
    shifted = [(publics[0] + 1) % curve.fr.modulus] + publics[1:]

    pk, vk = groth16.setup(curve, circuit, random.Random(1))
    g_proof = groth16.prove(pk, circuit, witness, random.Random(2))
    pre = plonk_setup(curve, circuit, random.Random(3))
    p_proof = plonk_prove(pre, witness, random.Random(4))

    assert [groth16.verify(vk, g_proof, publics),
            groth16.verify(vk, g_proof, shifted)] == [True, False]
    assert [plonk_verify(pre, p_proof, publics),
            plonk_verify(pre, p_proof, shifted)] == [True, False]
