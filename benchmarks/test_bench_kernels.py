"""Micro-benchmarks of the cryptographic kernels (wall-clock, pytest-benchmark).

Not a paper artifact — these time the substrate itself so regressions in
the pure-Python kernels are visible: field multiply, curve operations,
NTT, MSM (reference and front door), pairing, and the five protocol stages end-to-end.
"""

import random

import pytest

from repro.curves import BLS12_381, BN128, PairingEngine
from repro.harness.circuits import build_exponentiate
from repro.msm import msm_auto, msm_pippenger
from repro.poly import EvaluationDomain, ntt
from repro.workflow import Workflow

FR = BN128.fr
FQ = BN128.fq


@pytest.fixture(scope="module")
def rng():
    return random.Random(9)


def test_field_mul(benchmark, rng):
    a, b = FQ.rand(rng), FQ.rand(rng)
    benchmark(FQ.mul, a, b)


def test_field_inv(benchmark, rng):
    a = FQ.rand_nonzero(rng)
    benchmark(FQ.inv, a)


def test_g1_add(benchmark, rng):
    P = BN128.g1.random_point(rng)
    Q = BN128.g1.random_point(rng)
    benchmark(lambda: P + Q)


def test_g1_scalar_mul(benchmark, rng):
    P = BN128.g1.random_point(rng)
    k = rng.randrange(BN128.fr.modulus)
    benchmark(lambda: P * k)


def test_g2_add(benchmark, rng):
    P = BN128.g2.random_point(rng)
    Q = BN128.g2.random_point(rng)
    benchmark(lambda: P + Q)


def test_ntt_1024(benchmark, rng):
    domain = EvaluationDomain(FR, 1024)
    coeffs = [FR.rand(rng) for _ in range(1024)]
    benchmark(ntt, FR, coeffs, domain)


def _msm_input_256(rng):
    g = BN128.g1
    points = [(g.generator * rng.randrange(1, 1 << 30)).to_affine() for _ in range(256)]
    scalars = [rng.randrange(g.order) for _ in range(256)]
    return g, points, scalars


def test_msm_pippenger_256(benchmark, rng):
    benchmark.pedantic(msm_pippenger, args=_msm_input_256(rng), rounds=3, iterations=1)


def test_msm_auto_256(benchmark, rng):
    # The kernel the prover runs, next to the traced reference above.
    benchmark.pedantic(msm_auto, args=_msm_input_256(rng), rounds=3, iterations=1)


@pytest.mark.parametrize("curve", [BN128, BLS12_381], ids=lambda c: c.name)
def test_pairing(benchmark, curve):
    eng = PairingEngine(curve)
    P, Q = curve.g1.generator, curve.g2.generator
    benchmark.pedantic(eng.pairing, args=(P, Q), rounds=3, iterations=1)


@pytest.mark.parametrize("stage", ["compile", "setup", "witness", "proving", "verifying"])
def test_stage_wall_clock(benchmark, stage):
    """Untraced wall time of each protocol stage at n=256 (BN128)."""

    def run():
        builder, inputs = build_exponentiate(BN128, 256)
        wf = Workflow(BN128, builder, inputs, seed=0)
        for s in ("compile", "setup", "witness", "proving", "verifying"):
            res = wf.run_stage(s)
            if s == stage:
                return res.elapsed

    benchmark.pedantic(run, rounds=1, iterations=1)
