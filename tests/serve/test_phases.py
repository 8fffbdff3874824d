"""The phase-accounting invariant: every :class:`JobResult` — ok, shed,
timeout, retried, coalesced-bisected, drain-flushed — carries phases that
sum to its ``total_s`` within 1e-3, on every resolution path.  Under
faults, crashes and drains the service fault machine checks the same sum
on every resolution (tests/serve/test_service_machine.py).  A breakdown
that does not add up diagnoses nothing, so ``loadtest`` exits 1 on any
request that breaks it."""

import asyncio
import time

import pytest

from repro.obs import metrics
from repro.resilience import faults
from repro.resilience.faults import FaultSpec
from repro.serve import CircuitBreaker, PHASES
from repro.serve.jobs import PHASE_TOLERANCE_S, Job, JobResult
from tests.serve.conftest import BURST, fast_service, run_load
from tests.serve.test_service import crash_verify_under_pool


def assert_consistent(results):
    """Every result satisfies the additive invariant with legal phases."""
    assert results
    for r in results:
        assert set(r.phases) <= set(PHASES), r.phases
        assert all(v >= 0 for v in r.phases.values()), r.phases
        assert r.phases_consistent(), (
            f"request {r.request_id} [{r.status}]: phases sum "
            f"{r.phase_sum:.6f}s != total {r.total_s:.6f}s "
            f"(err {r.phase_error():+.6f}s)")


class TestResolutionPaths:
    def test_ok_prove_and_verify(self):
        svc = fast_service()
        report = run_load(svc, rps=20, duration_s=0.5, seed=1)
        assert_consistent(report.results)
        tracked = [r for r in report.results if r.status == "ok"]
        assert tracked
        for r in tracked:
            # Every service-resolved request closes with a settle tail
            # and paid a (possibly tiny) admission cost.
            assert "settle" in r.phases
            assert "admission" in r.phases
            assert r.phases.get("compute", 0.0) > 0

    def test_shed_results_are_untracked_by_design(self):
        svc = fast_service(max_queue=1, max_inflight=2)
        report = run_load(svc, seed=2, **BURST)
        shed = [r for r in report.results if r.status == "shed"]
        assert shed
        for r in shed:
            # Client-side sheds never entered the service: no phase dict,
            # and the invariant is vacuous on the 0.0 sentinel.
            assert r.phases == {}
            assert r.total_s == 0.0
            assert r.phases_consistent()
        assert_consistent(report.results)

    def test_deadline_timeouts_stay_consistent(self):
        svc = fast_service(size=64)
        report = run_load(svc, rps=20, duration_s=0.4, seed=3,
                          mix={"prove": 1}, deadline_s=0.001)
        assert report.count("timeout") == report.sent
        assert_consistent(report.results)

    def test_retried_requests_accumulate_compute(self):
        async def main():
            svc = fast_service()
            await svc.start()
            try:
                plan = [FaultSpec("serve:prove", "transient", hit=h)
                        for h in (1, 2)]
                with faults.injecting(plan):
                    return await svc.submit("prove")
            finally:
                await svc.drain()

        result = asyncio.run(main())
        assert result.status == "ok"
        assert result.attempts == 3
        assert_consistent([result])
        # Three attempts all landed in the one additive compute bucket.
        assert result.phases["compute"] > 0

    def test_crash_retried_verify_stays_consistent(self, monkeypatch):
        crashes = {"n": 0}
        crash_verify_under_pool(monkeypatch, crashes)

        async def main():
            async with fast_service(workers=2, breaker=CircuitBreaker(
                    threshold=1, cooldown_s=60.0)) as svc:
                return await svc.submit("verify")

        result = asyncio.run(main())
        assert crashes["n"] == 1
        assert (result.status, result.attempts, result.degraded) == (
            "ok", 2, True)
        assert_consistent([result])
        assert "retry_backoff" in result.phases

    def test_coalesced_bisected_batch_stays_consistent(self):
        svc = fast_service(max_batch=8)
        report = run_load(svc, seed=4, mix={"verify": 1}, bad_verify_pct=30,
                          **BURST)
        assert report.rejected > 0
        batched = [r for r in report.results if r.batched > 1]
        assert batched, "a burst of ten verifies must coalesce"
        assert_consistent(report.results)

    def test_drain_flushed_jobs_stay_consistent(self):
        async def main():
            svc = fast_service(size=64, max_queue=16)
            await svc.start()
            futures = [svc.submit_nowait("prove") for _ in range(6)]
            await svc.drain(timeout_s=0.01)
            return await asyncio.gather(*futures)

        results = asyncio.run(main())
        flushed = [r for r in results if r.status == "timeout"]
        assert flushed, "a 10ms drain with 6 queued proofs must flush"
        assert_consistent(results)


class TestClosedClock:
    """``total_s`` is read off the closed phase clock, so a pause between
    building a result and resolving it cannot open a gap between the two."""

    @pytest.fixture(autouse=True)
    def slow_finish(self, monkeypatch):
        finish = Job.finish_phases

        def delayed(job):
            time.sleep(0.005)
            return finish(job)

        monkeypatch.setattr(Job, "finish_phases", delayed)

    @staticmethod
    def assert_exact(results, status):
        hit = [r for r in results if r.status == status]
        assert hit, (status, [r.status for r in results])
        for r in hit:
            assert abs(r.phase_error()) < 1e-6, (r.status, r.phase_error())
            assert r.phases["settle"] >= 0.005

    def test_ok(self):
        report = run_load(fast_service(), rps=20, duration_s=0.3, seed=1)
        assert {r.kind for r in report.results} == {"prove", "verify"}
        self.assert_exact(report.results, "ok")

    def test_timeout(self):
        report = run_load(fast_service(size=64), rps=20, duration_s=0.2,
                          seed=3, mix={"prove": 1}, deadline_s=0.001)
        self.assert_exact(report.results, "timeout")

    def test_error(self):
        async def main():
            svc = fast_service()
            await svc.start()
            try:
                with faults.injecting([FaultSpec("serve:prove", "oom", hit=1)]):
                    return await svc.submit("prove")
            finally:
                await svc.drain()

        self.assert_exact([asyncio.run(main())], "error")

    def test_drain_flushed(self):
        async def main():
            svc = fast_service(size=64, max_queue=16)
            await svc.start()
            futures = [svc.submit_nowait("prove") for _ in range(6)]
            await svc.drain(timeout_s=0.01)
            return await asyncio.gather(*futures)

        self.assert_exact(asyncio.run(main()), "timeout")


class TestTelemetry:
    def test_registry_counts_and_results_time(self):
        """The results are the one capture of a request's timing: the
        registry gets the service's counters and no duration series."""
        registry = metrics.MetricsRegistry()
        svc = fast_service()
        with metrics.collecting(registry):
            report = run_load(svc, rps=20, duration_s=0.4, seed=5)
        assert report.ok > 0
        assert registry.counter("repro_serve_requests_total") == report.sent
        assert not [name for name in registry.histograms
                    if name.endswith("_seconds")]

    def test_result_phases_sum_to_total(self):
        svc = fast_service()
        report = run_load(svc, rps=10, duration_s=0.3, seed=6)
        ok = [r for r in report.results if r.status == "ok"]
        assert ok[0].phases
        assert abs(ok[0].phase_sum - ok[0].total_s) < 2e-3
        assert ok[0].start_s >= 0.0

    def test_phase_breakdown_block(self):
        svc = fast_service()
        report = run_load(svc, rps=20, duration_s=0.4, seed=7)
        ph = report.to_service_block()["phases"]
        assert ph["n"] == len([r for r in report.results if r.phases])
        assert ph["max_abs_error_s"] <= PHASE_TOLERANCE_S
        assert set(ph["mean_s"]) == set(PHASES)
        assert abs(sum(ph["share"].values()) - 1.0) < 0.01

    def test_untracked_client_shed_has_no_phase_block_entry(self):
        r = JobResult(request_id=-1, kind="prove", status="shed",
                      error_code="admission", error="error[admission]: x")
        assert r.phases_consistent()
        assert r.phase_sum == 0.0
