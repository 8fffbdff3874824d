"""Faults inside worker processes must surface typed at the parent.

PR 3's contract — never a pickled traceback, always a taxonomy error —
extended across the process boundary: a fault spec due at a kernel site
is shipped into the worker, fires there, and the parent re-raises the
matching typed error with the spec marked fired (exactly once, like the
serial cadence).  Retry policies then compose with the pool unchanged.
Whole pipelines under faults on a pool are ``PooledWorkflowMachine``'s
(tests/resilience/test_workflow_machine.py).
"""

import random

import pytest

from repro.curves import BN128
from repro.fields import BN254_FR
from repro.parallel.kernels import msm_parallel, ntt_transform_parallel
from repro.parallel.pool import WorkerPool
from repro.poly.domain import EvaluationDomain
from repro.resilience import faults
from repro.resilience.errors import (
    StageTimeout,
    TransientFault,
    WorkerCrash,
)
from repro.resilience.faults import FaultSpec
from repro.resilience.retry import RetryPolicy, with_retry
from tests.oracle import msm_pippenger

G1 = BN128.g1
FR = BN254_FR


def _msm_inputs(n=24, seed=0):
    r = random.Random(seed)
    points = [(G1.generator * r.randrange(1, 999)).to_affine()
              for _ in range(n)]
    scalars = [r.randrange(G1.order) for _ in range(n)]
    return points, scalars


@pytest.fixture
def pool():
    with WorkerPool(2, min_msm=2, min_ntt=2) as p:
        yield p


class TestWorkerFaultsSurfaceTyped:
    def test_msm_transient_fires_in_worker_and_types_at_parent(self, pool):
        points, scalars = _msm_inputs()
        spec = FaultSpec("msm:pippenger", "transient", hit=1)
        with faults.injecting([spec]):
            with pytest.raises(TransientFault):
                msm_parallel(G1, points, scalars, pool)
            assert spec.fired
            # Fires once, like the serial cadence: the next call succeeds
            # and still matches the serial kernel bit-for-bit.
            assert (msm_parallel(G1, points, scalars, pool)
                    == msm_pippenger(G1, points, scalars))

    def test_ntt_timeout_types_at_parent(self, pool):
        d = EvaluationDomain(FR, 32)
        values = [FR.rand(random.Random(5)) for _ in range(32)]
        spec = FaultSpec("ntt:transform", "timeout", hit=1)
        with faults.injecting([spec]):
            with pytest.raises(StageTimeout):
                ntt_transform_parallel(FR, list(values), d.omega, pool)
            assert spec.fired

    def test_untyped_worker_failure_becomes_worker_crash(self, pool):
        with pytest.raises(WorkerCrash) as err:
            pool.map("selftest_fail", [{"type": "RuntimeError",
                                        "message": "worker blew up"}])
        assert err.value.code == "worker"
        assert "worker blew up" in str(err.value)

    def test_fault_cadence_matches_serial(self, pool):
        # hit=2 on the kernel site: first parallel call passes untouched,
        # the second raises — the same schedule the serial kernel follows.
        points, scalars = _msm_inputs(12, seed=3)
        expect = msm_pippenger(G1, points, scalars)
        spec = FaultSpec("msm:pippenger", "transient", hit=2)
        with faults.injecting([spec]):
            assert msm_parallel(G1, points, scalars, pool) == expect
            with pytest.raises(TransientFault):
                msm_parallel(G1, points, scalars, pool)
        assert spec.fired


class TestRetryInterop:
    def test_transient_worker_fault_recovers_under_retry(self, pool):
        points, scalars = _msm_inputs(16, seed=9)
        expect = msm_pippenger(G1, points, scalars)
        spec = FaultSpec("msm:pippenger", "transient", hit=1)
        policy = RetryPolicy(max_attempts=3, seed=0, sleep=None)
        with faults.injecting([spec]):
            result = with_retry(
                lambda: msm_parallel(G1, points, scalars, pool),
                policy)
        assert result == expect
        assert spec.fired

    def test_worker_crash_is_not_retried(self, pool):
        calls = []

        def crashing():
            calls.append(1)
            return pool.map("selftest_fail", [{"type": "RuntimeError"}])

        policy = RetryPolicy(max_attempts=3, seed=0, sleep=None)
        with pytest.raises(WorkerCrash):
            with_retry(crashing, policy)
        assert len(calls) == 1  # deterministic bugs burn no retry budget
