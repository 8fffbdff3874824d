"""Serial <-> parallel differential suite: results must be bit-identical.

The determinism contract (docs/PARALLELISM.md): window-sliced MSM partial
sums, decimated sub-NTTs, leveled witness evaluation and fanned-out
fixed-base sweeps all compute the *same mathematical objects* as the serial
kernels, so parents reassemble results that serialize to identical bytes.

The default matrix is trimmed to keep tier-1 wall time sane; the CI
``parallel-smoke`` job sets ``REPRO_PARALLEL_FULL=1`` to run the full
grid — curves x sizes {2^6..2^10} x workers {1,2,3,4} (3 splits the
windows unevenly).
"""

import os
import random

import pytest

from repro.curves import BN128, get_curve
from repro.fields import BN254_FR
from repro.msm.fixed_base import FixedBaseTable
from repro.msm.pippenger import msm_pippenger
from repro.parallel.kernels import (
    batch_verify_parallel,
    fixed_base_mul_many,
    msm_parallel,
    ntt_transform_parallel,
)
from repro.parallel.pool import WorkerPool, parallel_pool
from repro.poly.domain import EvaluationDomain
from repro.poly.ntt import transform_raw

FULL = os.environ.get("REPRO_PARALLEL_FULL") == "1"

SIZES = tuple(2 ** i for i in range(6, 11)) if FULL else (64, 256)
WORKER_COUNTS = (1, 2, 3, 4) if FULL else (1, 2)
GROUP_NAMES = (["bn128.G1", "bn128.G2", "bls12_381.G1", "bls12_381.G2"]
               if FULL else ["bn128.G1", "bls12_381.G1", "bls12_381.G2"])

FR = BN254_FR

#: (group name, n) -> (points, scalars); inputs are the expensive part of
#: the matrix, so cells share them across worker counts.
_INPUTS = {}


def _group(name):
    curve = get_curve(name.split(".")[0])
    return curve.g1 if name.endswith("G1") else curve.g2


def _msm_inputs(group_name, n):
    key = (group_name, n)
    if key not in _INPUTS:
        group = _group(group_name)
        r = random.Random(hash(key) & 0xFFFF)
        points = [(group.generator * r.randrange(1, 1 << 16)).to_affine()
                  for _ in range(n)]
        scalars = [r.randrange(2 * group.order) for _ in range(n)]
        # Edge entries the kernels must agree on: identity point, zero
        # scalar, scalar == order (reduces to zero), order - 1.
        points[0] = None
        scalars[1] = 0
        scalars[2] = group.order
        scalars[3] = group.order - 1
        _INPUTS[key] = (points, scalars)
    return _INPUTS[key]


class TestMSMDifferential:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("group_name", GROUP_NAMES)
    def test_bit_identical_across_matrix(self, group_name, n, workers):
        if not FULL and group_name != "bn128.G1" and n != SIZES[0]:
            pytest.skip("trimmed matrix (set REPRO_PARALLEL_FULL=1)")
        group = _group(group_name)
        points, scalars = _msm_inputs(group_name, n)
        serial = msm_pippenger(group, points, scalars)
        with WorkerPool(workers, min_msm=2) as pool:
            par = msm_parallel(group, points, scalars, pool)
        assert par == serial
        assert par.to_affine() == serial.to_affine()


class TestNTTDifferential:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    @pytest.mark.parametrize("n", SIZES)
    def test_bit_identical_across_matrix(self, n, workers):
        d = EvaluationDomain(FR, n)
        r = random.Random(n)
        values = [FR.rand(r) for _ in range(n)]
        serial = transform_raw(list(values), d.omega, FR.modulus)
        with WorkerPool(workers, min_ntt=2) as pool:
            par = ntt_transform_parallel(FR, list(values), d.omega, pool)
        assert par == serial

    def test_inverse_root_too(self):
        # The quotient pipeline runs the same kernel with omega_inv.
        d = EvaluationDomain(FR, 128)
        r = random.Random(0xD1)
        values = [FR.rand(r) for _ in range(128)]
        serial = transform_raw(list(values), d.omega_inv, FR.modulus)
        with WorkerPool(2, min_ntt=2) as pool:
            assert ntt_transform_parallel(FR, list(values), d.omega_inv,
                                          pool) == serial

    def test_four_subs_take_two_combine_stages(self):
        # k = 4: the parent merges the sub-transforms in two radix-2 stages
        # (the serial backend runs the four tasks inline, no processes).
        d = EvaluationDomain(FR, 64)
        r = random.Random(0xD2)
        values = [FR.rand(r) for _ in range(64)]
        serial = transform_raw(list(values), d.omega, FR.modulus)
        with WorkerPool(4, backend="serial", min_ntt=2) as pool:
            assert ntt_transform_parallel(FR, list(values), d.omega,
                                          pool) == serial


class TestFixedBaseDifferential:
    @pytest.mark.parametrize("group_name", ["bn128.G1", "bn128.G2"])
    def test_table_sweep_bit_identical(self, group_name):
        group = _group(group_name)
        table = FixedBaseTable(group.generator, width=3)
        r = random.Random(7)
        scalars = [r.randrange(2 * group.order) for _ in range(40)] + [0, 1]
        serial = table.mul_many(scalars)
        with WorkerPool(2, min_msm=2) as pool:
            par = fixed_base_mul_many(table, scalars, pool)
        assert [p.to_affine() for p in par] == [p.to_affine() for p in serial]


def _proven_workflow(curve, size, seed=0, workers=None, pool_kwargs=None):
    from repro.harness.circuits import build_workload
    from repro.workflow import Workflow

    builder, inputs = build_workload("exponentiate", curve, size)
    wf = Workflow(curve, builder, inputs, seed=seed, workers=workers)
    if workers and workers > 1:
        # Tiny differential cells must still cross the fan-out thresholds.
        wf._pool = WorkerPool(workers, **(pool_kwargs or {}))
    with wf:
        wf.run_all()
    assert wf.accepted is True
    return wf


PROVE_CELLS = ([(c, s, w) for c in ("bn128", "bls12_381")
                for s in SIZES for w in (2, 4)]
               if FULL else [("bn128", 64, 2), ("bls12_381", 64, 2)])


class TestPipelineDifferential:
    @pytest.mark.parametrize("curve_name,size,workers", PROVE_CELLS)
    def test_proof_and_key_bytes_identical(self, curve_name, size, workers):
        from repro.groth16.serialize import (
            pk_to_bytes,
            proof_to_bytes,
            vk_to_bytes,
        )

        curve = get_curve(curve_name)
        low = dict(min_msm=4, min_ntt=4, min_witness=4, min_batch=2)
        serial = _proven_workflow(curve, size)
        par = _proven_workflow(curve, size, workers=workers, pool_kwargs=low)
        assert proof_to_bytes(par.proof) == proof_to_bytes(serial.proof)
        assert vk_to_bytes(par.vk) == vk_to_bytes(serial.vk)
        assert pk_to_bytes(par.pk) == pk_to_bytes(serial.pk)
        assert par.witness == serial.witness

    def test_witness_values_identical_under_pool(self):
        # Level-scheduled witness evaluation must reproduce the serial
        # single-assignment result exactly (not just the proof).
        curve = BN128
        serial = _proven_workflow(curve, 128)
        par = _proven_workflow(curve, 128, workers=2,
                               pool_kwargs=dict(min_witness=2))
        assert par.witness == serial.witness


class TestBatchVerifyDifferential:
    def _batch(self, curve, n=3):
        from repro.groth16 import prove, public_inputs

        wf = _proven_workflow(curve, 16)
        publics = public_inputs(wf.circuit, wf.witness)
        batch = [
            (prove(wf.pk, wf.circuit, wf.witness, random.Random(seed)),
             publics)
            for seed in range(n)
        ]
        return wf.vk, batch

    def test_accepts_like_serial(self):
        from repro.groth16.batch import batch_verify

        vk, batch = self._batch(BN128)
        assert batch_verify(vk, batch, random.Random(1)) is True
        with WorkerPool(2, min_batch=2) as pool:
            assert batch_verify_parallel(vk, batch, random.Random(1),
                                         pool) is True

    def test_rejects_like_serial(self):
        from repro.groth16.batch import batch_verify

        vk, batch = self._batch(BN128)
        bad = list(batch)
        proof, publics = bad[1]
        bad[1] = (proof, [v + 1 for v in publics])
        assert batch_verify(vk, bad, random.Random(1)) is False
        with WorkerPool(2, min_batch=2) as pool:
            assert batch_verify_parallel(vk, bad, random.Random(1),
                                         pool) is False


class TestWorkflowPoolWiring:
    def test_workflow_env_default(self, monkeypatch):
        from repro.harness.circuits import build_workload
        from repro.workflow import Workflow

        monkeypatch.setenv("REPRO_WORKERS", "2")
        builder, inputs = build_workload("exponentiate", BN128, 8)
        with Workflow(BN128, builder, inputs) as wf:
            assert wf.workers == 2
            assert wf.pool is not None

    def test_serial_workflow_has_no_pool(self):
        from repro.harness.circuits import build_workload
        from repro.workflow import Workflow

        builder, inputs = build_workload("exponentiate", BN128, 8)
        with Workflow(BN128, builder, inputs, workers=1) as wf:
            assert wf.pool is None

    def test_installed_pool_reaches_kernels_through_workflow(self):
        # A pool installed around the workflow (parallel_pool) engages even
        # when the workflow itself was built serial.
        from repro.harness.circuits import build_workload
        from repro.workflow import Workflow

        builder, inputs = build_workload("exponentiate", BN128, 64)
        with Workflow(BN128, builder, inputs) as wf:
            with parallel_pool(2, min_msm=4, min_ntt=4) as pool:
                wf.run_all()
            assert wf.accepted is True
            assert sum(s["tasks"] for s in pool.worker_stats.values()) > 0


class TestTelemetryDifferential:
    """Worker telemetry must observe, never perturb: the proof bytes of a
    pooled run are bit-identical with the collector on and off (and both
    match the serial run, which the matrix above already pins)."""

    def _prove(self, telemetry):
        from contextlib import nullcontext

        from repro.groth16.serialize import proof_to_bytes
        from repro.harness.circuits import build_workload
        from repro.obs import worker as obs_worker
        from repro.workflow import Workflow

        builder, inputs = build_workload("exponentiate", BN128, 128)
        collect = (obs_worker.collecting_tasks() if telemetry
                   else nullcontext())
        with collect as tel, \
                Workflow(BN128, builder, inputs, seed=0, workers=2) as wf:
            wf.run_all()
            assert wf.accepted is True
            return proof_to_bytes(wf.proof), tel

    def test_proof_bytes_identical_with_telemetry_on_and_off(self):
        plain, _ = self._prove(telemetry=False)
        telemetered, tel = self._prove(telemetry=True)
        assert tel.tasks, "telemetered run recorded no worker tasks"
        assert telemetered == plain
