"""Charged equals executed for the QAP column walk and the traced protocol
(docs/KERNELS.md, "Charging a reference").

``column_evaluations_at`` computes its value by lazy reduction, and a
traced call is charged the eager per-term walk: one ``field.mul`` and one
``field.add`` a matrix entry in its ``qap_columns_at_tau`` region.  The
tests hold that trace equal to the walk executed
(:func:`tests.oracle.column_evaluations_at`), and a whole traced ``setup``
and ``prove`` equal to the same run with the walk and the per-operation
NTT passes executed (:func:`tests.oracle.executed_columns`,
:func:`tests.oracle.executed_ntt`): the value, the region tree with every
region's counts in report order, the clock, the memory events with their
stamps and the address-space cursor (:func:`tests.oracle.full_trace`).
"""

import random

import pytest

from repro.circuit.compiler import compile_circuit
from repro.curves import BLS12_381, BN128
from repro.groth16 import generate_witness, prove, setup
from repro.groth16.serialize import pk_to_bytes, vk_to_bytes
from repro.harness.circuits import build_workload
from repro.qap import column_evaluations_at, qap_domain
from tests import oracle
from tests.conftest import make_pow_circuit

curves = pytest.mark.parametrize("curve", [BN128, BLS12_381], ids=["bn128", "bls12_381"])


@curves
@pytest.mark.parametrize("workload, terms", [("exponentiate", 192), ("poseidon", 1664)])
def test_column_walk(curve, workload, terms):
    builder, _inputs = build_workload(workload, curve, 64)
    r1cs = compile_circuit(builder).r1cs
    assert r1cs.stats()["nonzeros"] == terms
    domain, tau = qap_domain(r1cs), random.Random(workload).randrange(curve.fr.modulus)
    charged = oracle.full_trace(column_evaluations_at, r1cs, domain, tau)
    assert charged == oracle.full_trace(oracle.column_evaluations_at, r1cs, domain, tau)
    (walk,) = [r for r in charged[1] if r[1] == "qap_columns_at_tau"]
    fr = curve.fr
    assert walk[2:4] == (True, r1cs.n_constraints)
    assert walk[6] == ((fr._mul_tag, terms), (fr._add_tag, terms))


@curves
def test_traced_setup_and_prove(curve):
    circuit, inputs = make_pow_circuit(curve, 12)
    witness = generate_witness(circuit, inputs)

    def run():
        pk, vk = setup(curve, circuit, random.Random(41))
        return pk, vk, prove(pk, circuit, witness, random.Random(43))

    charged = oracle.full_trace(run)
    with oracle.executed_columns(), oracle.executed_ntt():
        executed = oracle.full_trace(run)
    assert charged[1:] == executed[1:]
    (pk, vk, proof), (pk_x, vk_x, proof_x) = charged[0], executed[0]
    assert (pk_to_bytes(pk), vk_to_bytes(vk), proof) == (pk_to_bytes(pk_x), vk_to_bytes(vk_x), proof_x)
    names = {r[1] for r in charged[1]}
    assert {"qap_columns_at_tau", "ntt_pass", "intt_pass", "intt_scale",
            "coset_scale"} <= names
