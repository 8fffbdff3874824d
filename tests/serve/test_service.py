"""ProvingService contract tests: admission, deadlines, retry, breaker,
coalescing/bisect isolation, and graceful drain.

All async bodies run through ``asyncio.run`` inside synchronous tests so
the suite needs no asyncio plugin.  Small cells (size 8–16) keep the
compute cheap; the service's own behavior, not prover speed, is under
test.
"""

import asyncio
import threading

import pytest

from repro.context import RUN
from repro.curves import get_curve
from repro.resilience import degrade, faults
from repro.resilience.errors import (
    AdmissionError,
    ArtifactCorruption,
    ResourceExhausted,
    TransientFault,
    WorkerCrash,
)
from repro.resilience.faults import FaultSpec
from repro.resilience.retry import RetryPolicy
from repro.serve import CircuitBreaker
from tests.conftest import UNREDUCED, unreduced
from tests.serve.conftest import fast_service


def run(coro):
    return asyncio.run(coro)


def crash_verify_under_pool(monkeypatch, crashes):
    """Every verify that runs with a worker pool installed dies with a
    ``WorkerCrash`` while ``crashes["on"]`` (default on); serial verifies
    run the real bisect.  ``crashes["n"]`` counts the crashes."""
    real = degrade.batch_verify_bisect

    def crashing(vk, payloads, rng):
        if RUN.pool is not None and crashes.get("on", True):
            crashes["n"] += 1
            raise WorkerCrash("worker died", task="verify")
        return real(vk, payloads, rng)

    monkeypatch.setattr(degrade, "batch_verify_bisect", crashing)


class TestRoundTrips:
    def test_prove_ok(self):
        async def main():
            async with fast_service() as svc:
                return await svc.submit("prove")

        result = run(main())
        assert result.status == "ok"
        assert result.proof_bytes > 0
        assert result.attempts == 1
        assert result.resolved_typed

    def test_verify_ok_and_poisoned_rejected(self):
        async def main():
            async with fast_service() as svc:
                good = await svc.submit("verify")
                bad = await svc.submit(
                    "verify", payload=svc.verify_payload(bad=True))
                return good, bad

        good, bad = run(main())
        assert good.status == "ok" and good.accepted is True
        assert bad.status == "ok" and bad.accepted is False
        assert bad.resolved_typed

    def test_unknown_kind_rejected(self):
        async def main():
            async with fast_service() as svc:
                with pytest.raises(ValueError, match="unknown request kind"):
                    svc.submit_nowait("sign")

        run(main())

    def test_submit_before_start_is_admission_error(self):
        svc = fast_service()
        with pytest.raises(AdmissionError):
            svc.submit_nowait("prove")

    def test_wrong_arity_publics_rejected_at_admission(self):
        async def main():
            async with fast_service() as svc:
                proof, publics = svc.verify_payload()
                with pytest.raises(ArtifactCorruption):
                    svc.submit_nowait("verify",
                                      payload=(proof, publics + [1]))

        run(main())

    def test_unreduced_publics_rejected_at_admission(self):
        async def main():
            async with fast_service() as svc:
                proof, publics = svc.verify_payload()
                r = get_curve(svc.curve).fr.modulus
                for how in UNREDUCED:
                    with pytest.raises(ArtifactCorruption,
                                       match="not a reduced") as exc:
                        svc.submit_nowait(
                            "verify", payload=(proof, unreduced(publics, r, how)))
                    assert exc.value.code == "corrupt"
                ok = await svc.submit("verify", payload=(proof, publics))
                assert ok.status == "ok" and ok.accepted is True

        run(main())


class TestAdmissionControl:
    def test_queue_cap_sheds_typed(self):
        async def main():
            async with fast_service(max_queue=2, max_inflight=64) as svc:
                futures, shed = [], 0
                for _ in range(10):
                    try:
                        futures.append(svc.submit_nowait("prove"))
                    except AdmissionError as exc:
                        shed += 1
                        assert exc.code == "admission"
                        assert exc.one_line().startswith("error[admission]:")
                results = await asyncio.gather(*futures)
                return shed, results, svc.counts["shed"]

        shed, results, counted = run(main())
        assert shed > 0
        assert counted == shed
        assert all(r.status == "ok" for r in results)

    def test_inflight_cap_sheds(self):
        async def main():
            async with fast_service(max_queue=100, max_inflight=3) as svc:
                futures, shed = [], 0
                for _ in range(8):
                    try:
                        futures.append(svc.submit_nowait("prove"))
                    except AdmissionError:
                        shed += 1
                await asyncio.gather(*futures)
                return shed, len(futures)

        shed, admitted = run(main())
        assert admitted == 3
        assert shed == 5

    def test_draining_service_sheds(self):
        async def main():
            svc = fast_service()
            async with svc:
                pass  # __aexit__ drains
            with pytest.raises(AdmissionError, match="not running|draining"):
                svc.submit_nowait("prove")

        run(main())


class TestDeadlines:
    def test_expired_in_queue_resolves_timeout_without_compute(self):
        async def main():
            async with fast_service() as svc:
                # A deadline far smaller than any prove wall time.
                return await svc.submit("prove", deadline_s=1e-6)

        result = run(main())
        assert result.status == "timeout"
        assert result.error_code == "timeout"
        assert result.error.startswith("error[timeout]:")

    def test_deadline_cancels_mid_compute(self):
        async def main():
            async with fast_service(size=64) as svc:
                # Long enough to start computing, far shorter than a
                # size-64 prove: the cooperative kernel polls must fire.
                return await svc.submit("prove", deadline_s=0.01)

        result = run(main())
        assert result.status == "timeout"
        assert result.resolved_typed

    def test_default_deadline_applies(self):
        async def main():
            async with fast_service(default_deadline_s=1e-6) as svc:
                return await svc.submit("prove")

        assert run(main()).status == "timeout"

    def test_verify_member_deadline_isolated_from_batch(self):
        async def main():
            async with fast_service(max_batch=4) as svc:
                doomed = svc.submit_nowait("verify", deadline_s=1e-6)
                healthy = svc.submit_nowait("verify")
                return await asyncio.gather(doomed, healthy)

        doomed, healthy = run(main())
        assert doomed.status == "timeout"
        assert healthy.status == "ok" and healthy.accepted is True


class TestRetriesAndBreaker:
    def test_transient_fault_is_retried(self):
        async def main():
            svc = fast_service()
            await svc.start()
            try:
                plan = [FaultSpec("serve:prove", "transient", hit=1)]
                with faults.injecting(plan):
                    return await svc.submit("prove")
            finally:
                await svc.drain()

        result = run(main())
        assert result.status == "ok"
        assert result.attempts == 2

    def test_retry_budget_exhaustion_is_typed(self):
        async def main():
            svc = fast_service(retry=RetryPolicy(max_attempts=2, sleep=None))
            await svc.start()
            try:
                plan = [FaultSpec("serve:prove", "transient", hit=h)
                        for h in (1, 2)]
                with faults.injecting(plan):
                    return await svc.submit("prove")
            finally:
                await svc.drain()

        result = run(main())
        assert result.status == "error"
        assert result.error_code == "transient"
        assert result.attempts == 2
        assert result.resolved_typed

    def test_non_retryable_fault_fails_fast(self):
        async def main():
            svc = fast_service()
            await svc.start()
            try:
                plan = [FaultSpec("serve:prove", "oom", hit=1)]
                with faults.injecting(plan):
                    return await svc.submit("prove")
            finally:
                await svc.drain()

        result = run(main())
        assert result.status == "error"
        assert result.error_code == ResourceExhausted.code
        assert result.attempts == 1

    def test_worker_crashes_trip_breaker_to_degraded(self):
        crashes = {"n": 0}

        async def main():
            svc = fast_service(
                workers=2,
                retry=RetryPolicy(max_attempts=5, sleep=None),
                breaker=CircuitBreaker(threshold=2, cooldown_s=60.0))
            real_compute = svc._compute

            def crashing_compute(kind, jobs, use_pool, seed):
                if use_pool:
                    crashes["n"] += 1
                    raise WorkerCrash("worker died", task="prove")
                return real_compute(kind, jobs, False, seed)

            svc._compute = crashing_compute
            await svc.start()
            try:
                return await svc.submit("prove"), svc.breaker.state
            finally:
                await svc.drain()

        result, state = run(main())
        # Two pool attempts crash, the breaker opens, the next attempt
        # runs degraded (serial) and succeeds.
        assert result.status == "ok"
        assert result.degraded is True
        assert crashes["n"] == 2
        assert state == "open"

    def test_crashed_verify_probe_reopens_then_next_probe_recloses(
            self, monkeypatch):
        crashes = {"n": 0}
        crash_verify_under_pool(monkeypatch, crashes)
        t = {"now": 0.0}

        async def main():
            async with fast_service(workers=2, breaker=CircuitBreaker(
                    threshold=1, cooldown_s=10.0,
                    clock=lambda: t["now"])) as svc:
                svc.breaker.record_failure()
                t["now"] = 11.0  # cooldown over: the next job probes
                crashed = await svc.submit("verify")
                after_crash = svc.breaker.state
                crashes["on"] = False
                t["now"] = 22.0
                probe = await svc.submit("verify")
                return crashed, after_crash, probe, svc.breaker.state

        crashed, after_crash, probe, state = run(main())
        assert crashes["n"] == 1
        assert after_crash == "open"
        assert (crashed.status, crashed.accepted, crashed.degraded,
                crashed.attempts) == ("ok", True, True, 2)
        assert (probe.status, probe.accepted, probe.degraded) == (
            "ok", True, False)
        assert state == "closed"

    @pytest.mark.parametrize("kind, status, state", [
        ("timeout", "timeout", "half-open"),   # StageTimeout
        ("oom", "error", "half-open"),         # a non-retryable fault
        ("transient", "ok", "closed"),         # retried: the retry probes
    ])
    def test_probe_without_a_verdict_is_handed_back(self, kind, status,
                                                    state):
        t = {"now": 0.0}

        async def main():
            async with fast_service(workers=2, breaker=CircuitBreaker(
                    threshold=1, cooldown_s=10.0,
                    clock=lambda: t["now"])) as svc:
                svc.breaker.record_failure()
                t["now"] = 11.0  # cooldown over: the next job probes
                with faults.injecting([FaultSpec("serve:prove", kind, hit=1)]):
                    first = await svc.submit("prove")
                after_first = svc.breaker.state
                probe = await svc.submit("prove")
                return first, after_first, probe, svc.breaker.to_dict()

        first, after_first, probe, breaker = run(main())
        assert (first.status, first.degraded) == (status, False)
        # Only a success or a crash is a verdict on the pool: the state
        # stays and the probe slot is free again, so the next attempt
        # probes instead of running degraded for good.
        assert after_first == state
        assert (probe.status, probe.degraded) == ("ok", False)
        assert breaker["state"] == "closed" and breaker["trips"] == 1

    def test_verify_crashes_trip_the_breaker(self, monkeypatch):
        crashes = {"n": 0}
        crash_verify_under_pool(monkeypatch, crashes)

        async def main():
            async with fast_service(
                    workers=2,
                    retry=RetryPolicy(max_attempts=5, sleep=None),
                    breaker=CircuitBreaker(threshold=3,
                                           cooldown_s=60.0)) as svc:
                return await svc.submit("verify"), svc.breaker.to_dict()

        result, breaker = run(main())
        assert crashes["n"] == 3
        assert breaker["state"] == "open" and breaker["trips"] == 1
        assert result.status == "ok" and result.attempts == 4

    def test_crashed_verify_batch_is_retried_degraded(self, monkeypatch):
        crashes = {"n": 0}
        crash_verify_under_pool(monkeypatch, crashes)

        async def main():
            async with fast_service(
                    workers=2, max_batch=8,
                    breaker=CircuitBreaker(threshold=1,
                                           cooldown_s=60.0)) as svc:
                return await asyncio.gather(
                    *(svc.submit_nowait("verify") for _ in range(3)))

        results = run(main())
        assert crashes["n"] == 1
        for r in results:
            assert (r.status, r.accepted, r.degraded, r.attempts,
                    r.batched) == ("ok", True, True, 2, 3)

    def test_breaker_calls_run_on_the_event_loop_thread(self, monkeypatch):
        crash_verify_under_pool(monkeypatch, {"n": 0})
        breaker = CircuitBreaker(threshold=1, cooldown_s=60.0)
        calls = []
        for name in ("allow_pool", "record_success", "record_failure"):
            def wrapped(*args, _name=name, _method=getattr(breaker, name)):
                calls.append((_name, threading.get_ident()))
                return _method(*args)

            setattr(breaker, name, wrapped)

        async def main():
            async with fast_service(workers=2, breaker=breaker) as svc:
                await svc.submit("prove")   # pooled: allow, success
                await svc.submit("verify")  # crash, then degraded
                return threading.get_ident()

        loop_thread = run(main())
        assert {ident for _, ident in calls} == {loop_thread}
        assert {name for name, _ in calls} == {
            "allow_pool", "record_success", "record_failure"}

    def test_released_probe_admits_the_next_one(self):
        t = {"now": 0.0}
        breaker = CircuitBreaker(threshold=1, cooldown_s=10.0,
                                 clock=lambda: t["now"])
        breaker.record_failure()
        t["now"] = 11.0
        assert breaker.allow_pool()       # the probe
        breaker.release()
        assert (breaker.state, breaker.trips) == ("half-open", 1)
        assert breaker.allow_pool()       # the next probe

    def test_breaker_halfopen_probe_recloses(self):
        t = {"now": 0.0}
        breaker = CircuitBreaker(threshold=1, cooldown_s=10.0,
                                 clock=lambda: t["now"])
        assert breaker.allow_pool()
        assert breaker.record_failure() is True
        assert breaker.state == "open"
        assert not breaker.allow_pool()
        t["now"] = 11.0
        assert breaker.state == "half-open"
        assert breaker.allow_pool()       # the probe
        assert not breaker.allow_pool()   # only one probe at a time
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.trips == 1


class TestCoalescing:
    def test_verify_requests_coalesce_into_one_batch(self):
        async def main():
            async with fast_service(max_batch=8) as svc:
                futures = [svc.submit_nowait("verify") for _ in range(4)]
                return await asyncio.gather(*futures)

        results = run(main())
        assert all(r.status == "ok" and r.accepted is True for r in results)
        assert all(r.batched == 4 for r in results)

    def test_bisect_isolates_poisoned_members(self):
        async def main():
            async with fast_service(max_batch=8) as svc:
                futures = [
                    svc.submit_nowait("verify",
                                      payload=svc.verify_payload(bad=(i == 2)))
                    for i in range(5)
                ]
                results = await asyncio.gather(*futures)
                return results, svc.counts["isolated_bad"]

        results, isolated = run(main())
        accepted = [r.accepted for r in results]
        assert accepted == [True, True, False, True, True]
        assert all(r.status == "ok" for r in results)
        assert isolated == 1

    def test_batch_cap_respected(self):
        async def main():
            async with fast_service(max_batch=2) as svc:
                futures = [svc.submit_nowait("verify") for _ in range(5)]
                return await asyncio.gather(*futures)

        results = run(main())
        assert all(r.batched <= 2 for r in results)

    def test_lone_verify_goes_straight_to_compute(self, monkeypatch):
        """With the event loop's clock stopped no timed wait can end, so a
        lone verify that still reaches the compute thread waited on none."""
        async def main():
            async with fast_service() as svc:
                handed = asyncio.Event()
                submit = svc._executor.submit

                def watch(fn, *args):
                    if fn == svc._compute:
                        handed.set()
                    return submit(fn, *args)

                monkeypatch.setattr(svc._executor, "submit", watch)
                loop = asyncio.get_running_loop()
                with monkeypatch.context() as clock:
                    now = loop.time()
                    clock.setattr(loop, "time", lambda: now)
                    future = svc.submit_nowait("verify")
                    for _ in range(10):
                        if handed.is_set():
                            break
                        await asyncio.sleep(0)
                    reached = handed.is_set()
                return reached, await future

        reached, result = run(main())
        assert reached, "the lone verify waited for co-riders"
        assert (result.status, result.accepted, result.batched) == (
            "ok", True, 1)

    def test_batches_form_from_what_queued_while_compute_was_busy(self):
        """A verify holds the compute thread; the verifies that queue
        meanwhile run, once it is released, in batches of ``max_batch``.
        (The two waits' timeouts only keep a broken service from hanging
        the suite.)"""
        release = threading.Event()
        batches = []

        async def main():
            async with fast_service(max_batch=3) as svc:
                loop = asyncio.get_running_loop()
                entered = asyncio.Event()

                def held(kind, jobs, use_pool, seed):
                    if not batches:
                        loop.call_soon_threadsafe(entered.set)
                        release.wait(60)
                    batches.append([job.request_id for job in jobs])
                    return [{"accepted": True} for _ in jobs]

                svc._compute = held
                first = svc.submit_nowait("verify")
                await asyncio.wait_for(entered.wait(), 60)
                queued = [svc.submit_nowait("verify") for _ in range(6)]
                release.set()
                return await asyncio.gather(first, *queued)

        results = run(main())
        assert batches == [[1], [2, 3, 4], [5, 6, 7]]
        size = {rid: len(batch) for batch in batches for rid in batch}
        for r in results:
            assert (r.status, r.accepted) == ("ok", True)
            assert r.batched == size[r.request_id]


class TestDrain:
    def test_drain_resolves_everything_and_is_idempotent(self):
        async def main():
            svc = fast_service()
            await svc.start()
            futures = [svc.submit_nowait("prove") for _ in range(3)]
            await svc.drain()
            await svc.drain()  # idempotent
            return await asyncio.gather(*futures), svc.outstanding

        results, outstanding = run(main())
        assert outstanding == 0
        assert all(r.status == "ok" for r in results)

    def test_drain_timeout_expires_queued_jobs(self):
        async def main():
            svc = fast_service(max_queue=50)
            await svc.start()
            futures = [svc.submit_nowait("prove") for _ in range(10)]
            await svc.drain(timeout_s=0.01)
            return await asyncio.gather(*futures)

        results = run(main())
        assert all(r.resolved_typed for r in results)
        statuses = {r.status for r in results}
        assert "timeout" in statuses  # the tail was drained out

    def test_cancelled_future_does_not_wedge_drain(self):
        async def main():
            svc = fast_service()
            await svc.start()
            fut = svc.submit_nowait("prove")
            fut.cancel()
            await asyncio.wait_for(svc.drain(), timeout=30)
            return svc.outstanding

        assert run(main()) == 0

    def test_stats_shape(self):
        async def main():
            async with fast_service() as svc:
                await svc.submit("prove")
                return svc.stats()

        stats = run(main())
        assert stats["counts"]["ok"] == 1
        assert stats["breaker"]["state"] == "closed"
        assert stats["queue_depth"] == 0


def _exponentiate_cell(size=8):
    from repro.curves import get_curve
    from repro.harness.circuits import build_workload
    from repro.workflow import Workflow

    curve = get_curve("bn128")
    builder, inputs = build_workload("exponentiate", curve, size)
    return Workflow(curve, builder, inputs)


class TestOneStageRunner:
    """The service runs its requests and its cold start through the
    workflow's stage runner, so both paths record the same telemetry."""

    @staticmethod
    def kernel_counts(registry):
        return {name: value for name, value in registry.counters.items()
                if name.startswith("repro_ntt_")
                or (name.startswith("repro_msm_")
                    and name.endswith("_calls_total"))}

    def test_served_and_pipeline_proves_record_the_same(self):
        from repro.obs import metrics, spans

        def proving_spans(rec):
            return [sp for sp in rec.root.walk() if sp.name == "proving"]

        async def served():
            async with fast_service() as svc:
                with spans.recording() as rec, \
                        metrics.collecting() as registry:
                    result = await svc.submit("prove")
            return result, rec, registry

        result, served_rec, served_reg = run(served())
        assert result.status == "ok"

        wf = _exponentiate_cell()
        for stage in ("compile", "setup", "witness"):
            wf.run_stage(stage)
        with spans.recording() as pipeline_rec, \
                metrics.collecting() as pipeline_reg:
            wf.run_stage("proving")

        assert len(proving_spans(served_rec)) == 1
        assert len(proving_spans(pipeline_rec)) == 1
        served_counts = self.kernel_counts(served_reg)
        assert served_counts["repro_ntt_transforms_total"] > 0
        assert any(name.startswith("repro_msm_") for name in served_counts)
        assert served_counts == self.kernel_counts(pipeline_reg)

    def test_protocol_calls_are_looked_up_at_call_time(self, monkeypatch):
        # bench's traced pass rebinds repro.groth16.setup; a binding made
        # at import time would silently run the original instead.
        import repro.groth16
        from repro.serve import ARTIFACT_CACHE

        calls = []
        real = repro.groth16.setup

        def counting(*args, **kwargs):
            calls.append(args[0].name)
            return real(*args, **kwargs)

        monkeypatch.setattr(repro.groth16, "setup", counting)
        ARTIFACT_CACHE.clear()

        wf = _exponentiate_cell()
        wf.run_stage("compile")
        wf.run_stage("setup")
        assert len(calls) == 1

        async def cold_start():
            async with fast_service():
                pass

        run(cold_start())
        assert len(calls) == 2
