"""Optimized <-> reference MSM kernel differential suite (docs/KERNELS.md).

Every optimization of the kernel speed campaign — signed-digit buckets,
batch-affine accumulation, GLV decomposition, the ``msm_auto`` front door,
and the lazy-reduction field paths underneath them — must be invisible in
results: bit-identical MSM outputs across the kernel cross product, and
byte-identical proof/pk/vk artifacts between a fast run (serial and
pooled) and the reference run — the same workflow with every stage traced
(the pinning rule; nothing else selects a kernel).

The default matrix is trimmed to keep tier-1 wall time sane; the CI
``kernel-test`` job sets ``REPRO_KERNEL_FULL=1`` to run the full grid —
curves x sizes {2^6..2^10} x kernels x workers {1,4} — mirroring the
``REPRO_PARALLEL_FULL`` idiom of the parallel suite.
"""

import os
import random

import pytest

from repro.curves import get_curve
from repro.msm.dispatch import msm_auto
from repro.msm.glv import msm_glv
from repro.msm.naive import msm_naive
from repro.msm.pippenger import msm_pippenger
from repro.msm.wnaf import msm_wnaf
from repro.parallel.pool import WorkerPool

FULL = os.environ.get("REPRO_KERNEL_FULL") == "1"

SIZES = tuple(2 ** i for i in range(6, 11)) if FULL else (64, 256)
WORKER_COUNTS = (1, 4) if FULL else (1,)
#: All four groups even in the trimmed matrix: each tower has its own
#: ``xi`` constants under the flat Fq2 kernels, so both G2s stay covered.
GROUP_NAMES = ["bn128.G1", "bn128.G2", "bls12_381.G1", "bls12_381.G2"]

#: kernel name -> callable; ``naive`` only runs at the smallest size (it is
#: quadratic-ish in wall time and the comparator, not the subject).
KERNELS = {
    "naive": msm_naive,
    "wnaf": msm_wnaf,
    "glv": msm_glv,
    "auto": msm_auto,
}

#: (group name, n) -> (points, scalars), shared across kernel cells.
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
        # Edge entries every kernel must agree on: identity point, zero
        # scalar, scalar == order (reduces to zero), order - 1, one.
        points[0] = None
        scalars[1] = 0
        scalars[2] = group.order
        scalars[3] = group.order - 1
        scalars[4] = 1
        _INPUTS[key] = (points, scalars)
    return _INPUTS[key]


class TestKernelCrossProduct:
    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("group_name", GROUP_NAMES)
    def test_bit_identical_to_reference(self, group_name, n, kernel):
        if kernel == "naive" and n > SIZES[0]:
            pytest.skip("naive comparator only runs at the smallest size")
        if not FULL and group_name != "bn128.G1" and n != SIZES[0]:
            pytest.skip("trimmed matrix (set REPRO_KERNEL_FULL=1)")
        group = _group(group_name)
        points, scalars = _msm_inputs(group_name, n)
        reference = msm_pippenger(group, points, scalars)
        optimized = KERNELS[kernel](group, points, scalars)
        assert optimized == reference
        assert optimized.to_affine() == reference.to_affine()

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    @pytest.mark.parametrize("group_name", GROUP_NAMES)
    def test_chunked_parallel_rides_fast_path(self, group_name, workers):
        # msm_parallel runs window slices of msm_glv inside workers; the
        # reassembled sum must match the serial reference bit-for-bit.
        from repro.parallel.kernels import msm_parallel

        group = _group(group_name)
        points, scalars = _msm_inputs(group_name, SIZES[0])
        reference = msm_pippenger(group, points, scalars)
        with WorkerPool(workers, min_msm=2) as pool:
            pooled = msm_parallel(group, points, scalars, pool)
        assert pooled == reference
        assert pooled.to_affine() == reference.to_affine()

    @pytest.mark.parametrize("kernel", ["wnaf", "glv"])
    def test_explicit_window_respected(self, kernel):
        group = _group("bn128.G1")
        points, scalars = _msm_inputs("bn128.G1", 64)
        reference = msm_pippenger(group, points, scalars)
        for window in (1, 2, 5, 13):
            assert KERNELS[kernel](group, points, scalars,
                                   window=window) == reference

    @pytest.mark.parametrize("kernel", ["wnaf", "glv", "auto"])
    def test_empty_and_degenerate_inputs(self, kernel):
        group = _group("bn128.G1")
        fn = KERNELS[kernel]
        assert fn(group, [], []) == group.infinity()
        assert fn(group, [None, None], [3, 5]) == group.infinity()
        g = group.generator.to_affine()
        assert fn(group, [g], [0]) == group.infinity()
        assert fn(group, [g], [group.order]) == group.infinity()
        assert fn(group, [g], [1]) == group.generator
        assert (fn(group, [g], [group.order - 1])
                == msm_pippenger(group, [g], [group.order - 1]))

    def test_length_mismatch_raises(self):
        group = _group("bn128.G1")
        g = group.generator.to_affine()
        for fn in (msm_wnaf, msm_glv):
            with pytest.raises(ValueError):
                fn(group, [g], [1, 2])
            with pytest.raises(ValueError):
                fn(group, [g], [1], window=0)
            with pytest.raises(ValueError):
                fn(group, [g], [1], window=33)


class TestDispatch:
    def test_auto_prefers_glv_on_g1_wnaf_on_g2(self, monkeypatch):
        from repro.obs.metrics import MetricsRegistry, collecting

        # The retired override names the other kernel; nothing reads it.
        monkeypatch.setenv("REPRO_MSM", "pippenger")
        for group_name, metric in (
            ("bn128.G1", "repro_msm_glv_calls_total"),
            ("bn128.G2", "repro_msm_wnaf_calls_total"),
        ):
            group = _group(group_name)
            points, scalars = _msm_inputs(group_name, 64)
            with collecting(MetricsRegistry()) as m:
                msm_auto(group, points, scalars)
            assert m.counter(metric) >= 1, group_name
            assert m.counter("repro_msm_pippenger_calls_total") == 0

    def test_traced_runs_stay_on_reference_kernel(self, monkeypatch):
        # The analytical model must keep seeing the textbook kernel: under
        # an active tracer msm_auto routes to msm_pippenger.
        from repro.obs.metrics import MetricsRegistry, collecting
        from repro.perf.trace import Tracer, tracing

        monkeypatch.setenv("REPRO_MSM", "glv")
        group = _group("bn128.G1")
        points, scalars = _msm_inputs("bn128.G1", 64)
        with collecting(MetricsRegistry()) as m, tracing(Tracer()):
            msm_auto(group, points, scalars)
        assert m.counter("repro_msm_pippenger_calls_total") == 1
        assert m.counter("repro_msm_glv_calls_total") == 0


PROVE_CELLS = ([(c, s) for c in ("bn128", "bls12_381") for s in SIZES]
               if FULL else [("bn128", 64), ("bls12_381", 64)])


def _proven_workflow(curve, size, workers=None, traced=False):
    """One full workflow: fast kernels by default, the reference kernels of
    every stage with *traced* (a tracer per stage, as ``profile_run`` does)."""
    from repro.harness.circuits import build_workload
    from repro.perf.trace import Tracer
    from repro.workflow import STAGES, Workflow

    builder, inputs = build_workload("exponentiate", curve, size)
    wf = Workflow(curve, builder, inputs, seed=0, workers=workers)
    if workers and workers > 1:
        wf._pool = WorkerPool(workers, min_msm=4, min_ntt=4,
                              min_witness=4, min_batch=2)
    with wf:
        wf.run_all({stage: Tracer() for stage in STAGES} if traced else None)
    assert wf.accepted is True
    return wf


class TestProofByteDifferential:
    """The fast kernels must leave proof/pk/vk bytes untouched."""

    @pytest.mark.parametrize("curve_name,size", PROVE_CELLS)
    def test_proof_bytes_identical_per_kernel(self, curve_name, size):
        from repro.groth16.serialize import (
            pk_to_bytes,
            proof_to_bytes,
            vk_to_bytes,
        )

        curve = get_curve(curve_name)
        reference = _proven_workflow(curve, size, traced=True)
        optimized = _proven_workflow(curve, size)
        assert (proof_to_bytes(optimized.proof)
                == proof_to_bytes(reference.proof))
        assert vk_to_bytes(optimized.vk) == vk_to_bytes(reference.vk)
        assert pk_to_bytes(optimized.pk) == pk_to_bytes(reference.pk)
        assert optimized.witness == reference.witness

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_pooled_proof_bytes_identical(self, workers):
        from repro.groth16.serialize import (
            pk_to_bytes,
            proof_to_bytes,
            vk_to_bytes,
        )

        curve = get_curve("bn128")
        reference = _proven_workflow(curve, 64, traced=True)
        pooled = _proven_workflow(curve, 64, workers=max(workers, 2))
        assert proof_to_bytes(pooled.proof) == proof_to_bytes(reference.proof)
        # Setup is pooled too: its chunks run the batch walk in the workers.
        assert vk_to_bytes(pooled.vk) == vk_to_bytes(reference.vk)
        assert pk_to_bytes(pooled.pk) == pk_to_bytes(reference.pk)
