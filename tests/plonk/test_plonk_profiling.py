"""The analysis framework applied to PLONK.

The perf layer is protocol-agnostic: PLONK's prover runs on the same
instrumented field/MSM/NTT substrate, so tracing it yields the same style
of characterization the paper performs for Groth16 — and the conclusions
transfer (compute-intensive, bigint-dominated, MSM/FFT parallel).
"""

import random

import pytest

from repro.circuit import CircuitBuilder, compile_circuit, gadgets
from repro.curves import BN128
from repro.groth16 import generate_witness
from repro.perf.analysis import analyze_stage
from repro.perf.trace import Tracer, tracing
from repro.plonk import plonk_prove, plonk_setup


@pytest.fixture(scope="module")
def plonk_profile():
    b = CircuitBuilder("pow", BN128.fr)
    b.output(gadgets.exponentiate(b, b.private_input("x"), 32), "y")
    circuit = compile_circuit(b)
    rng = random.Random(17)
    pre = plonk_setup(BN128, circuit, rng)
    witness = generate_witness(circuit, {"x": 3})
    tracer = Tracer(label="plonk/prove")
    with tracing(tracer):
        plonk_prove(pre, witness, rng)
    return analyze_stage(tracer, stage="plonk_prove", curve="bn128",
                         size=pre.n)


class TestPlonkCharacterization:
    def test_compute_intensive_like_groth16_proving(self, plonk_profile):
        assert plonk_profile.opcode_mix.intensive == "compute"
        assert plonk_profile.opcode_mix.data_pct > 25.0

    def test_bigint_dominates(self, plonk_profile):
        assert plonk_profile.functions.top(1)[0].function == "bigint"
        assert plonk_profile.functions.share_of("bigint") > 0.8

    def test_highly_parallel(self, plonk_profile):
        # Wire interpolation, quotient evaluation and MSMs all fan out.
        assert plonk_profile.split.parallel_fraction > 0.5

    def test_grand_product_is_the_serial_part(self, plonk_profile):
        # The permutation grand product is a sequential scan by nature.
        serial = plonk_profile.split.serial_cycles
        assert serial > 0

    def test_topdown_classifies_per_machine(self, plonk_profile):
        td7 = plonk_profile.view("i7-8650U").topdown
        td9 = plonk_profile.view("i9-13900K").topdown
        # Same cross-machine divergence the paper reports for Groth16.
        assert td7.frontend > td9.frontend
        assert td9.classification in ("backend", "retiring")
