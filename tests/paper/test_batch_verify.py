"""Extension — batch verification throughput.

The paper's introduction motivates ZKP efficiency with servers processing
"millions of transactions"; on the verifier side the standard answer is
batch verification (k+3 Miller loops + 1 final exponentiation for k
proofs, vs 4k + k individually).  This test measures the realized
speedup on our pairing substrate and checks it grows with the batch.
"""

import random
import time

import pytest

from repro.curves import BN128
from repro.groth16 import generate_witness, prove, public_inputs, setup, verify
from repro.groth16.batch import batch_verify
from repro.harness.report import render_table
from tests.conftest import make_pow_circuit


@pytest.fixture(scope="module")
def proofs():
    circ, _ = make_pow_circuit(BN128, 8)
    rng = random.Random(71)
    pk, vk = setup(BN128, circ, rng)
    items = []
    for x in range(2, 14):
        w = generate_witness(circ, {"x": x})
        items.append((prove(pk, circ, w, rng), public_inputs(circ, w)))
    return vk, items


def test_batch_verification_speedup(proofs):
    vk, items = proofs

    # Best of three a side, so one burst of machine noise inside a single
    # timing does not decide a ratio.
    results = []
    for k in (2, 6, 12):
        batch = items[:k]
        t_ind = t_batch = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            for proof, publics in batch:
                assert verify(vk, proof, publics)
            t_ind = min(t_ind, time.perf_counter() - t0)
            t0 = time.perf_counter()
            assert batch_verify(vk, batch, random.Random(k))
            t_batch = min(t_batch, time.perf_counter() - t0)
        results.append((k, t_ind, t_batch, t_ind / t_batch))
    print()
    print(render_table(
        ["batch size", "individual (s)", "batched (s)", "speedup"],
        [list(r) for r in results],
        title="[Batch] Groth16 batch verification",
        floatfmt=".3f",
    ))

    speedups = {k: s for k, _, _, s in results}
    # Batching wins, and wins more as the batch grows.
    assert speedups[6] > 1.5
    assert speedups[12] > speedups[2]


def test_batch_rejects_poisoned_batch_quickly(proofs):
    vk, items = proofs

    bad = list(items[:6])
    proof, publics = bad[3]
    bad[3] = (proof, [(publics[0] + 1) % BN128.fr.modulus])
    assert batch_verify(vk, bad, random.Random(99)) is False
