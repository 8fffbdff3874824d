"""Retry/backoff/deadline tests, including the Workflow.run_stage wiring."""

import time

import pytest

from repro.context import RUN
from repro.curves import BN128
from repro.obs import metrics
from repro.resilience import faults
from repro.resilience.errors import (
    ResourceExhausted,
    StageError,
    StageOrderError,
    StageTimeout,
    TransientFault,
)
from repro.resilience import retry
from repro.resilience.faults import FaultSpec
from repro.resilience.retry import (
    Deadline,
    RetryPolicy,
    deadline_scope,
    with_retry,
)
from repro.workflow import STAGES, Workflow


def _no_sleep_policy(max_attempts=3, seed=0):
    return RetryPolicy(max_attempts=max_attempts, seed=seed, sleep=None)


def _workflow(exponent=8, seed=0, retry=None):
    from repro.circuit import CircuitBuilder, gadgets

    b = CircuitBuilder(f"pow{exponent}", BN128.fr)
    x = b.private_input("x")
    b.output(gadgets.exponentiate(b, x, exponent), "y")
    return Workflow(BN128, b, {"x": 3}, seed=seed, retry=retry)


class TestRetryPolicy:
    def test_jitter_is_deterministic_per_seed(self):
        a = RetryPolicy(seed=4, sleep=None)
        b = RetryPolicy(seed=4, sleep=None)
        assert [a.delay(i) for i in (1, 2, 3)] == [b.delay(i) for i in (1, 2, 3)]

    def test_delay_grows_and_caps(self, monkeypatch):
        monkeypatch.setattr(retry, "JITTER", 0.0)
        p = RetryPolicy(sleep=None)
        assert p.delay(1) == pytest.approx(0.01)
        assert p.delay(2) == pytest.approx(0.02)
        assert p.delay(7) == pytest.approx(0.64)
        assert p.delay(8) == pytest.approx(1.0)  # capped
        assert p.delay(20) == pytest.approx(1.0)

    def test_backoff_constants_keep_their_values(self):
        # The serving layer's and the chaos runs' backoff schedules are
        # built on these values.
        assert (retry.BASE_DELAY, retry.MAX_DELAY, retry.JITTER) == \
               (0.01, 1.0, 0.5)

    @pytest.mark.parametrize("seed", [0, 7])
    def test_delays_stay_within_the_jitter_band(self, seed):
        p = RetryPolicy(seed=seed, sleep=None)
        for attempt in range(1, 10):
            raw = min(1.0, 0.01 * 2 ** (attempt - 1))
            assert raw * 0.5 <= p.delay(attempt) <= raw

    def test_backoff_sleeps_the_delay_it_returns(self):
        slept = []
        p = RetryPolicy(seed=3, sleep=slept.append)
        assert p.sleeps
        delays = [p.backoff(a) for a in (1, 2, 3)]
        assert slept == delays
        twin = RetryPolicy(seed=3, sleep=None)
        assert delays == [twin.delay(a) for a in (1, 2, 3)]

    def test_no_sleep_policy_skips_the_wait(self):
        p = RetryPolicy(sleep=None)
        assert not p.sleeps
        assert p.backoff(1) > 0

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
        # The MSM front door must notice an already-expired deadline.
        from repro.msm import msm_auto

        g = BN128.g1
        pts = [(g.generator * (i + 1)).to_affine() for i in range(4)]
        with deadline_scope(0.0, stage="proving"):
            with pytest.raises(StageTimeout):
                msm_auto(g, pts, [1, 2, 3, 4])


class TestStageExecution:
    def test_stage_retry_recovers_and_proof_verifies(self):
        wf = _workflow(retry=_no_sleep_policy())
        plan = [FaultSpec("stage:proving", "transient", hit=1)]
        with metrics.collecting() as reg, faults.injecting(plan):
            wf.run_all()
        assert wf.accepted is True
        assert reg.counter("repro_resilience_retries_total") == 1
        assert reg.counter("repro_resilience_stage_proving_retries_total") == 1

    def test_exhausted_retries_wrap_in_stage_error(self):
        wf = _workflow(retry=_no_sleep_policy(max_attempts=2))
        plan = [FaultSpec("stage:setup", "transient", hit=n) for n in (1, 2)]
        with metrics.collecting() as reg, faults.injecting(plan):
            with pytest.raises(StageError) as info:
                wf.run_all()
        assert info.value.stage == "setup"
        assert isinstance(info.value.fault, TransientFault)
        assert info.value.__cause__ is info.value.fault
        assert info.value.attempts == 2
        assert reg.counter("repro_resilience_giveups_total") == 1

    def test_non_retryable_fails_fast_typed(self):
        wf = _workflow(retry=_no_sleep_policy())
        plan = [FaultSpec("stage:witness", "oom", hit=1)]
        with faults.injecting(plan) as inj:
            with pytest.raises(StageError) as info:
                wf.run_all()
        assert isinstance(info.value.fault, ResourceExhausted)
        assert info.value.attempts == 1
        assert inj.pending() == []

    def test_kernel_timeout_retries_the_stage(self):
        # A StageTimeout raised inside the body (here by the MSM site) is
        # retryable: the stage's next attempt runs the kernels again.
        wf = _workflow(retry=_no_sleep_policy())
        plan = [FaultSpec("msm:pippenger", "timeout", hit=1)]
        with metrics.collecting() as reg, faults.injecting(plan) as inj:
            wf.run_all()
        assert wf.accepted is True
        assert inj.pending() == []
        assert reg.counter("repro_resilience_retries_total") == 1
        assert reg.counter("repro_resilience_stage_proving_retries_total") == 1

    def test_each_attempt_checks_the_stage_site_once(self):
        wf = _workflow(retry=_no_sleep_policy())
        plan = [FaultSpec("stage:verifying", "corrupt", hit=1)]
        with faults.injecting(plan) as inj:
            wf.run_all()
        assert wf.accepted is True
        assert inj.hits == {**{f"stage:{s}": 1 for s in STAGES},
                            "stage:verifying": 2,
                            **{k: v for k, v in inj.hits.items()
                               if not k.startswith("stage:")}}

    def test_elapsed_spans_every_attempt(self):
        slept = []

        def sleep(seconds):
            slept.append(seconds)
            time.sleep(seconds)

        policy = RetryPolicy(max_attempts=2, sleep=sleep)
        wf = _workflow(retry=policy)
        plan = [FaultSpec("stage:compile", "transient", hit=1)]
        with faults.injecting(plan):
            result = wf.run_stage("compile")
        assert len(slept) == 1
        assert result.elapsed >= slept[0]

    def test_clean_run_counts_no_retry(self):
        wf = _workflow(retry=_no_sleep_policy())
        with metrics.collecting() as reg:
            wf.run_all()
        assert wf.accepted is True
        assert not any("retries" in name or "giveups" in name
                       for name in reg.snapshot()["counters"])

    def test_order_error_is_raised_before_any_attempt(self):
        # Checked before the retry ladder: the bare error a run without a
        # policy raises, no attempt, no give-up.
        wf = _workflow(retry=_no_sleep_policy())
        plan = [FaultSpec("stage:proving", "transient", hit=1)]
        with metrics.collecting() as reg, faults.injecting(plan):
            with pytest.raises(StageOrderError, match="setup"):
                wf.run_stage("proving")
        assert not plan[0].fired
        assert reg.counter("repro_resilience_giveups_total") == 0
        assert "proving" not in wf.results

    def test_without_retry_faults_propagate_raw(self):
        wf = _workflow()
        plan = [FaultSpec("stage:compile", "transient", hit=1)]
        with faults.injecting(plan):
            with pytest.raises(TransientFault):
                wf.run_stage("compile")

    def test_without_retry_order_error_propagates_raw(self):
        with pytest.raises(StageOrderError):
            _workflow().run_stage("proving")

    def test_workflow_takes_retry_not_policy(self):
        import inspect

        params = inspect.signature(Workflow).parameters
        assert "retry" in params and "policy" not in params
        with pytest.raises(TypeError):
            Workflow(BN128, None, {}, policy=_no_sleep_policy())
