"""Graceful-degradation tests: MSM fallback, batch bisection, memory guard."""

import random

import pytest

from repro.curves import BLS12_381, BN128
from repro.groth16 import generate_witness, prove, public_inputs, setup, verify
from repro.groth16.batch import batch_verify
from repro.msm.naive import msm_naive
from repro.obs import metrics
from repro.resilience import faults
from repro.resilience.degrade import (
    batch_verify_bisect,
    resilient_msm,
    run_with_memory_guard,
)
from repro.resilience.errors import ResourceExhausted
from repro.resilience.faults import FaultSpec
from tests.conftest import make_pow_circuit


def _msm_inputs(n=6):
    g = BN128.g1
    pts = [(g.generator * (i + 1)).to_affine() for i in range(n)]
    scalars = [(7 * i + 3) % BN128.fr.modulus for i in range(n)]
    return g, pts, scalars


class TestResilientMsm:
    def test_clean_path_matches_naive(self):
        g, pts, scalars = _msm_inputs()
        assert resilient_msm(g, pts, scalars) == msm_naive(g, pts, scalars)

    def test_falls_back_on_injected_kernel_fault(self):
        g, pts, scalars = _msm_inputs()
        plan = [FaultSpec("msm:pippenger", "transient", hit=1)]
        with metrics.collecting() as reg, faults.injecting(plan):
            result = resilient_msm(g, pts, scalars)
        assert result == msm_naive(g, pts, scalars)
        assert reg.counter("repro_resilience_msm_fallbacks_total") == 1
        assert reg.counter("repro_resilience_faults_injected_total") == 1

    def test_prover_survives_msm_fault(self):
        # End-to-end: a kernel fault mid-prove degrades to the naive MSM
        # and the resulting proof still verifies.
        circ, _ = make_pow_circuit(BN128, 4)
        rng = random.Random(5)
        pk, vk = setup(BN128, circ, rng)
        w = generate_witness(circ, {"x": 3})
        plan = [FaultSpec("msm:pippenger", "transient", hit=2)]
        with metrics.collecting() as reg, faults.injecting(plan):
            proof = prove(pk, circ, w, rng)
        assert reg.counter("repro_resilience_msm_fallbacks_total") == 1
        assert verify(vk, proof, public_inputs(circ, w))


class TestBatchBisect:
    @pytest.fixture(scope="class")
    def session(self):
        circ, _ = make_pow_circuit(BN128, 4)
        rng = random.Random(61)
        pk, vk = setup(BN128, circ, rng)
        items = []
        for x in (2, 3, 5, 7, 11):
            w = generate_witness(circ, {"x": x})
            items.append((prove(pk, circ, w, rng), public_inputs(circ, w)))
        return vk, items

    @staticmethod
    def _poison(items, idx):
        proof, publics = items[idx]
        items[idx] = (proof, [(publics[0] + 1) % BN128.fr.modulus])

    def test_clean_batch_no_bisection(self, session):
        vk, items = session
        with metrics.collecting() as reg:
            ok, bad = batch_verify_bisect(vk, items, random.Random(1))
        assert ok and bad == []
        assert reg.counter("repro_resilience_batch_bisections_total") == 0

    @pytest.mark.parametrize("bad_set", [(0,), (3,), (4,), (1, 3), (0, 2, 4)])
    def test_finds_exact_bad_indices(self, session, bad_set):
        vk, items = session
        batch = list(items)
        for idx in bad_set:
            self._poison(batch, idx)
        with metrics.collecting() as reg:
            ok, bad = batch_verify_bisect(vk, batch, random.Random(2))
        assert not ok
        assert bad == sorted(bad_set)
        assert reg.counter("repro_resilience_batch_bad_proofs_total") == \
            len(bad_set)

    def test_all_bad(self, session):
        vk, items = session
        batch = list(items)
        for idx in range(len(batch)):
            self._poison(batch, idx)
        ok, bad = batch_verify_bisect(vk, batch, random.Random(3))
        assert not ok
        assert bad == list(range(len(batch)))


class TestBatchOfOne:
    """A paced service's median batch has one member, and that is a
    ``verify``: same verdict and bad indices as the fold, weights not drawn."""

    @pytest.mark.parametrize("curve", [BN128, BLS12_381], ids=lambda c: c.name)
    @pytest.mark.parametrize("poisoned", [False, True], ids=["good", "bad"])
    def test_same_answer_as_the_fold_and_rng_untouched(self, curve, poisoned):
        circ, _ = make_pow_circuit(curve, 4)
        rng = random.Random(67)
        pk, vk = setup(curve, circ, rng)
        w = generate_witness(circ, {"x": 3})
        proof, publics = prove(pk, circ, w, rng), public_inputs(circ, w)
        if poisoned:
            publics = [(publics[0] + 1) % curve.fr.modulus]
        weights = random.Random(1)
        before = weights.getstate()
        with metrics.collecting() as reg:
            ok, bad = batch_verify_bisect(vk, [(proof, publics)], weights)
        assert weights.getstate() == before
        assert ok is batch_verify(vk, [(proof, publics)], random.Random(1)) is not poisoned
        assert bad == ([0] if poisoned else [])
        assert reg.counter("repro_groth16_verify_total") == 1
        assert reg.counter("repro_groth16_batch_verify_total") == 0
        assert reg.counter("repro_resilience_batch_bad_proofs_total") == poisoned
        # Two members still fold (and draw).
        batch_verify_bisect(vk, [(proof, publics)] * 2, weights)
        assert weights.getstate() != before


class TestMemoryGuard:
    def test_clean_cell_runs_once(self):
        calls = []

        def cell(sample):
            calls.append(sample)
            return "profiles"

        assert run_with_memory_guard(cell, 4) == ("profiles", 4)
        assert calls == [4]

    def test_downshifts_until_cell_fits(self):
        calls = []

        def cell(sample):
            calls.append(sample)
            if sample < 64:
                raise ResourceExhausted("mem trace too large")
            return "profiles"

        with metrics.collecting() as reg:
            result, effective = run_with_memory_guard(cell, 1)
        assert result == "profiles"
        assert effective == 64
        assert calls == [1, 8, 64]
        assert reg.counter("repro_resilience_mem_downshifts_total") == 2

    def test_last_failure_propagates(self):
        def cell(sample):
            raise ResourceExhausted("never fits")

        with pytest.raises(ResourceExhausted):
            run_with_memory_guard(cell, 1, max_downshifts=2)

    def test_other_errors_pass_through(self):
        def cell(sample):
            raise RuntimeError("not a memory problem")

        with pytest.raises(RuntimeError):
            run_with_memory_guard(cell, 1)
