"""Retry/backoff/deadline tests, including the Workflow.run_stage wiring."""

import pytest

from repro.context import RUN
from repro.curves import BN128
from repro.obs import metrics
from repro.resilience import faults
from repro.resilience.errors import (
    ResourceExhausted,
    StageError,
    StageTimeout,
    TransientFault,
)
from repro.resilience.faults import FaultSpec
from repro.resilience.retry import (
    Deadline,
    ResiliencePolicy,
    RetryPolicy,
    deadline_scope,
    with_retry,
)
from repro.workflow import Workflow


def _no_sleep_policy(max_attempts=3, seed=0):
    return RetryPolicy(max_attempts=max_attempts, seed=seed, sleep=None)


def _workflow(exponent=8, seed=0, policy=None):
    from repro.circuit import CircuitBuilder, gadgets

    b = CircuitBuilder(f"pow{exponent}", BN128.fr)
    x = b.private_input("x")
    b.output(gadgets.exponentiate(b, x, exponent), "y")
    return Workflow(BN128, b, {"x": 3}, seed=seed, policy=policy)


class TestRetryPolicy:
    def test_jitter_is_deterministic_per_seed(self):
        a = RetryPolicy(seed=4, sleep=None)
        b = RetryPolicy(seed=4, sleep=None)
        assert [a.delay(i) for i in (1, 2, 3)] == [b.delay(i) for i in (1, 2, 3)]

    def test_delay_grows_and_caps(self):
        p = RetryPolicy(base_delay=0.1, max_delay=0.3, jitter=0.0, sleep=None)
        assert p.delay(1) == pytest.approx(0.1)
        assert p.delay(2) == pytest.approx(0.2)
        assert p.delay(5) == pytest.approx(0.3)  # capped

    def test_bad_attempt_budget_rejected(self):
        with pytest.raises(ValueError, match="max_attempts"):
            RetryPolicy(max_attempts=0)


class TestWithRetry:
    def test_retries_transient_until_success(self):
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise TransientFault("blip")
            return "ok"

        with metrics.collecting() as reg:
            assert with_retry(flaky, _no_sleep_policy()) == "ok"
        assert len(calls) == 3
        assert reg.counter("repro_resilience_retries_total") == 2

    def test_gives_up_after_budget(self):
        def always():
            raise TransientFault("forever")

        with metrics.collecting() as reg:
            with pytest.raises(TransientFault):
                with_retry(always, _no_sleep_policy(max_attempts=2))
        assert reg.counter("repro_resilience_giveups_total") == 1

    def test_non_retryable_raises_immediately(self):
        calls = []

        def exhausted():
            calls.append(1)
            raise ResourceExhausted("no memory")

        with pytest.raises(ResourceExhausted):
            with_retry(exhausted, _no_sleep_policy())
        assert len(calls) == 1


class TestDeadline:
    def test_expired_deadline_raises_typed(self):
        dl = Deadline(0.0, stage="proving")
        with pytest.raises(StageTimeout) as info:
            dl.check()
        assert info.value.stage == "proving"
        assert info.value.deadline_s == 0.0

    def test_scope_installs_and_restores(self):
        assert RUN.deadline is None
        with deadline_scope(60, stage="x") as dl:
            assert RUN.deadline is dl
        assert RUN.deadline is None

    def test_none_seconds_is_passthrough(self):
        with deadline_scope(None, stage="x") as dl:
            assert dl is None
            assert RUN.deadline is None

    def test_kernel_polls_deadline(self):
        # The MSM window loop must notice an already-expired deadline.
        from repro.msm.pippenger import msm_pippenger

        g = BN128.g1
        pts = [(g.generator * (i + 1)).to_affine() for i in range(4)]
        with deadline_scope(0.0, stage="proving"):
            with pytest.raises(StageTimeout):
                msm_pippenger(g, pts, [1, 2, 3, 4])


class TestStageExecution:
    def test_stage_retry_recovers_and_proof_verifies(self):
        wf = _workflow(policy=ResiliencePolicy(retry=_no_sleep_policy()))
        plan = [FaultSpec("stage:proving", "transient", hit=1)]
        with metrics.collecting() as reg, faults.injecting(plan):
            wf.run_all()
        assert wf.accepted is True
        assert reg.counter("repro_resilience_retries_total") == 1
        assert reg.counter("repro_resilience_stage_proving_retries_total") == 1

    def test_exhausted_retries_wrap_in_stage_error(self):
        wf = _workflow(
            policy=ResiliencePolicy(retry=_no_sleep_policy(max_attempts=2)))
        plan = [FaultSpec("stage:setup", "transient", hit=n) for n in (1, 2)]
        with faults.injecting(plan):
            with pytest.raises(StageError) as info:
                wf.run_all()
        assert info.value.stage == "setup"
        assert isinstance(info.value.fault, TransientFault)
        assert info.value.attempts == 2

    def test_non_retryable_fails_fast_typed(self):
        wf = _workflow(policy=ResiliencePolicy(retry=_no_sleep_policy()))
        plan = [FaultSpec("stage:witness", "oom", hit=1)]
        with faults.injecting(plan) as inj:
            with pytest.raises(StageError) as info:
                wf.run_all()
        assert isinstance(info.value.fault, ResourceExhausted)
        assert info.value.attempts == 1
        assert inj.pending() == []

    def test_stage_deadline_enforced_via_policy(self):
        policy = ResiliencePolicy(retry=_no_sleep_policy(max_attempts=2),
                                  deadlines={"proving": 0.0})
        wf = _workflow(policy=policy)
        with pytest.raises(StageError) as info:
            wf.run_all()
        assert info.value.stage == "proving"
        assert isinstance(info.value.fault, StageTimeout)

    def test_without_policy_faults_propagate_raw(self):
        wf = _workflow()
        plan = [FaultSpec("stage:compile", "transient", hit=1)]
        with faults.injecting(plan):
            with pytest.raises(TransientFault):
                wf.run_stage("compile")
