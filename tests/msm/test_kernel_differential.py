"""Optimized <-> reference MSM kernel differential suite (docs/KERNELS.md).

Every optimization of the kernel speed campaign — signed-digit buckets,
batch-affine accumulation, GLV decomposition, the ``msm_auto`` front door,
and the lazy-reduction field paths underneath them — must be invisible in
results: bit-identical MSM outputs across the kernel cross product, and
byte-identical proof/pk/vk artifacts between a fast run (serial and
pooled) and the traced run — the same workflow with every stage traced,
serial by the pinning rule (nothing else selects a kernel).

The default matrix is trimmed to keep tier-1 wall time sane; the CI
``kernel-test`` job sets ``REPRO_KERNEL_FULL=1`` to run the full grid —
curves x sizes {2^6..2^10} x kernels x workers {1,4} — mirroring the
``REPRO_PARALLEL_FULL`` idiom of the parallel suite.
"""

import os
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.curves import get_curve
from repro.msm.dispatch import msm_auto
from repro.msm.glv import msm_glv
from repro.msm.naive import msm_naive
from repro.msm.pippenger import optimal_window
from repro.msm.wnaf import msm_wnaf
from repro.parallel.pool import WorkerPool
from repro.perf.trace import Tracer, tracing
from tests.oracle import affine_wave, msm_pippenger

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
        r = random.Random(f"{group_name}:{n}")
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


#: Window width of the fold cases: digits in [-3, 4], buckets 1..4.
FOLD_WINDOW = 3

#: Scalars of the points ``(P, P, -P)``, each aimed at one corner of the
#: cross-window fold at ``FOLD_WINDOW`` (small scalars pass the GLV split
#: whole, so both kernels see these digits).
FOLD_CASES = {
    # window 0 buckets {3: P, 2: -P, 1: P}: running P, then P - P = O,
    # then the total meets an equal running sum (a doubling).
    "running-sum-cancels": [3, 1, 2],
    # buckets {3: P (from -P's digit -3), 2: P}: running P + P doubles.
    "running-sum-doubles": [2, 1, 5],
    # buckets {3: -P, 2: P, 1: P}: running -P + P = O, total -P + P = O.
    "total-cancels": [2, 1, 3],
    # window 1 (digits 0, 0, 0) is all zero between two live windows.
    "zero-window": [1 + (1 << 6), 2 + (2 << 6), 1 << 6],
    # window 1 has digits (1, 1, 2): buckets {1: 2P, 2: -P} fold to O.
    "window-folds-to-zero": [9, 10, 17],
    # window 1's buckets cancel inside the accumulation: P + (-P) = O.
    "bucket-cancels": [1 + (2 << 3), 0, 2 << 3],
    # 7 -> (-1, 1) and 63 -> (-1, 0, 1): live carry windows.
    "carry-window": [7, 63, 1],
}


@pytest.mark.parametrize("group_name", GROUP_NAMES)
class TestCrossWindowFold:
    """Corners of the affine fold across windows, against the reference."""

    @pytest.mark.parametrize("case", sorted(FOLD_CASES))
    def test_corner_cases(self, group_name, case):
        group = _group(group_name)
        p = (group.generator * 7).to_affine()
        points = [p, p, (p[0], group.ops.neg(p[1]))]
        scalars = FOLD_CASES[case]
        reference = msm_pippenger(group, points, scalars)
        for window in (FOLD_WINDOW, None):
            for kernel in (msm_wnaf, msm_glv):
                result = kernel(group, points, scalars, window=window)
                assert result == reference, (kernel.__name__, window)
                assert result.to_affine() == reference.to_affine()

    def test_carry_window_of_full_width_scalars(self, group_name):
        # order - 1 and 2^bits - 1 both carry out of their top raw window.
        group = _group(group_name)
        p = (group.generator * 3).to_affine()
        bits = group.order.bit_length()
        scalars = [group.order - 1, (1 << (bits - 1)) - 1]
        reference = msm_pippenger(group, [p, p], scalars)
        for window in (FOLD_WINDOW, 4, None):
            assert msm_wnaf(group, [p, p], scalars, window=window) == reference
            assert msm_glv(group, [p, p], scalars, window=window) == reference

    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    def test_single_term(self, group_name, kernel):
        group = _group(group_name)
        p = (group.generator * 11).to_affine()
        r = random.Random(group_name)
        for k in (1, 2, 5, group.order - 1, r.randrange(group.order)):
            reference = msm_pippenger(group, [p], [k])
            assert KERNELS[kernel](group, [p], [k]) == reference, k
            assert reference == group.point(*p) * k


#: Affine multiples ``[k]G`` per group, the operands of the wave tests.
_MULTIPLES = {}


def _multiples(group_name):
    if group_name not in _MULTIPLES:
        group = _group(group_name)
        pts = [(group.generator * k).to_affine() for k in range(1, 7)]
        _MULTIPLES[group_name] = pts + [(x, group.ops.neg(y)) for x, y in pts]
    return _MULTIPLES[group_name]


def _traced_counts(fn, *args):
    """``(fn(*args), counts)`` of one call under a throwaway tracer."""
    tracer = Tracer()
    with tracing(tracer):
        value = fn(*args)
    return value, +tracer.root.counts


@pytest.mark.parametrize("group_name", GROUP_NAMES)
class TestFusedWave:
    """The adapters' fused ``add_wave`` against the per-operation wave of
    ``tests/oracle.py``: same sums, same number of slopes, and under a
    tracer the same primitive counts."""

    def _check(self, group_name, ps, qs):
        ops = _group(group_name).ops
        expected, expected_counts = _traced_counts(affine_wave, ops, ps, qs)
        assert ops.add_wave(ps, qs) == affine_wave(ops, ps, qs) == expected
        got, counts = _traced_counts(ops.add_wave, ps, qs)
        assert got == expected
        assert counts == expected_counts
        return got[0]

    @settings(max_examples=25, deadline=None)
    @given(picks=st.lists(st.tuples(st.integers(-1, 11), st.integers(-1, 11)), max_size=12))
    def test_random_waves(self, group_name, picks):
        # Twelve points (six and their negations) drawn with replacement:
        # chords, tangents, cancellations and infinities all come up.
        pts = _multiples(group_name) + [None]
        self._check(group_name, [pts[i] for i, _ in picks], [pts[j] for _, j in picks])

    def test_corner_cases(self, group_name):
        group = _group(group_name)
        p, q, neg_p = (_multiples(group_name)[i] for i in (0, 4, 6))
        twice, six = _multiples(group_name)[1], _multiples(group_name)[5]
        # Equal x, a different y that is not -y: the classifier keys on x.
        other_y = (p[0], group.ops.add(p[1], group.ops.one))
        ps = [None, p, None, p, p, p, p]
        qs = [q, None, None, q, p, neg_p, other_y]
        assert self._check(group_name, ps, qs) == [q, p, None, six, twice, None, None]

    def test_only_doublings(self, group_name):
        pts = _multiples(group_name)[:6]
        got = self._check(group_name, pts, pts)
        assert got == [(_group(group_name).generator * (2 * k)).to_affine()
                       for k in range(1, 7)]

    def test_empty_and_slope_free_waves(self, group_name):
        p, neg_p = _multiples(group_name)[0], _multiples(group_name)[6]
        ops = _group(group_name).ops
        assert ops.add_wave([], []) == ([], 0)
        assert ops.add_wave([p, None, None], [neg_p, None, p]) == ([None, None, p], 0)
        self._check(group_name, [p, None], [neg_p, p])


class TestDispatch:
    def test_auto_prefers_glv_on_both_groups(self, monkeypatch):
        from repro.obs.metrics import MetricsRegistry, collecting

        # The retired override names the other kernel; nothing reads it.
        monkeypatch.setenv("REPRO_MSM", "pippenger")
        for group_name in ("bn128.G1", "bn128.G2"):
            group = _group(group_name)
            points, scalars = _msm_inputs(group_name, 64)
            with collecting(MetricsRegistry()) as m:
                msm_auto(group, points, scalars)
            assert m.counter("repro_msm_glv_calls_total") == 1, group_name
            assert m.counter("repro_msm_glv_decompositions_total") == 61, group_name
            assert m.counter("repro_msm_wnaf_calls_total") == 1, group_name

    def test_traced_runs_charge_the_reference_kernel(self, monkeypatch):
        # The analytical model must keep seeing the textbook kernel: under
        # an active tracer msm_auto runs the fast kernel, which the
        # counters count, and is charged msm_pippenger's windows
        # (tests/msm/test_pippenger_charge.py holds the whole trace).
        from repro.obs.metrics import MetricsRegistry, collecting

        monkeypatch.setenv("REPRO_MSM", "glv")
        group = _group("bn128.G1")
        points, scalars = _msm_inputs("bn128.G1", 64)
        tracer = Tracer()
        with collecting(MetricsRegistry()) as m, tracing(tracer):
            value = msm_auto(group, points, scalars)
        assert m.counter("repro_msm_glv_calls_total") == 1
        assert m.counter("repro_msm_wnaf_calls_total") == 1
        assert value == msm_pippenger(group, points, scalars)
        windows = [r for r in tracer.iter_regions() if r.name == "msm_window"]
        assert len(windows) == -(-group.order.bit_length() // optimal_window(61))
        assert all(r.parallel and r.items == 61 for r in windows)


PROVE_CELLS = ([(c, s) for c in ("bn128", "bls12_381") for s in SIZES]
               if FULL else [("bn128", 64), ("bls12_381", 64)])


def _proven_workflow(curve, size, workers=None, traced=False):
    """One full workflow, with *traced* a tracer per stage (as
    ``profile_run`` does): its forks (the NTT's ``field.mul`` passes, the
    QAP's lazy accumulation) take the traced route; the MSM computes by the
    fast kernel either way, held to the reference kernel above."""
    from repro.harness.circuits import build_workload
    from repro.workflow import STAGES, Workflow

    builder, inputs = build_workload("exponentiate", curve, size)
    wf = Workflow(curve, builder, inputs, seed=0, workers=workers)
    if workers and workers > 1:
        wf._pool = WorkerPool(workers, min_msm=4, min_ntt=4, min_batch=2)
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
