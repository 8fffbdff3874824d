"""Load-generator tests: mix parsing, open-loop accounting, the ledger
service block, determinism of the seeded request story, the
``loadtest`` exit gate, and the service ``loadtest --faults`` builds."""

import asyncio
import json
import time

import pytest

from repro.cli import main
from repro.obs.ledger import make_record
from repro.resilience import faults
from repro.resilience.retry import RetryPolicy
from repro.serve import (
    SERVE_SITES,
    CircuitBreaker,
    ProvingService,
    parse_mix,
    run_loadtest,
)
from repro.serve.jobs import Job, JobResult
from repro.serve.loadgen import LoadReport, _dist, percentile

#: The sites ``loadtest --faults`` draws its schedule from.
SITES = SERVE_SITES + ("msm:pippenger", "ntt:transform")


def fast_service(**kwargs):
    kwargs.setdefault("size", 8)
    kwargs.setdefault("retry", RetryPolicy(max_attempts=3, sleep=None))
    kwargs.setdefault("breaker", CircuitBreaker(cooldown_s=0.01))
    return ProvingService(**kwargs)


def run_load(service, **kwargs):
    async def main():
        await service.start()
        try:
            return await run_loadtest(service, **kwargs)
        finally:
            await service.drain()

    return asyncio.run(main())


class TestParseMix:
    def test_colon_form_is_equal_weights(self):
        assert parse_mix("prove:verify") == {"prove": 1, "verify": 1}

    def test_weighted_form(self):
        assert parse_mix("prove=3,verify=1") == {"prove": 3, "verify": 1}

    def test_single_kind(self):
        assert parse_mix("prove") == {"prove": 1}

    @pytest.mark.parametrize("bad", ["", "sign", "prove=x", "prove=-1",
                                     "prove=0"])
    def test_bad_specs_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_mix(bad)


class TestPercentile:
    def test_empty_is_zero(self):
        assert percentile([], 99) == 0.0

    def test_single_value(self):
        assert percentile([7.0], 50) == 7.0
        assert percentile([7.0], 99) == 7.0

    def test_nearest_rank(self):
        values = [float(i) for i in range(1, 101)]
        assert percentile(values, 50) == 50.0
        assert percentile(values, 99) == 99.0

    # The pinned nearest-rank contract on tiny result sets: rank =
    # max(1, ceil(p/100 * n)), so p50 of two samples is the *lower*
    # sample and p95/p99 the upper; a single sample answers every p.
    @pytest.mark.parametrize("values,p,expected", [
        ([3.0], 50, 3.0),
        ([3.0], 95, 3.0),
        ([3.0], 99, 3.0),
        ([1.0, 2.0], 50, 1.0),
        ([1.0, 2.0], 95, 2.0),
        ([1.0, 2.0], 99, 2.0),
        ([1.0, 2.0, 3.0], 50, 2.0),
        ([1.0, 2.0, 3.0], 95, 3.0),
        ([1.0, 2.0, 3.0, 4.0], 50, 2.0),
        ([1.0, 2.0, 3.0, 4.0], 75, 3.0),
        ([float(i) for i in range(1, 21)], 95, 19.0),
        ([float(i) for i in range(1, 21)], 99, 20.0),
    ])
    def test_small_set_contract(self, values, p, expected):
        assert percentile(values, p) == expected

    def test_float_noise_cannot_shift_a_rank(self):
        # 0.95 * 20 is 19.000000000000004 in binary floats; the rounded
        # rank must stay 19, never ceil up to 20.
        values = [float(i) for i in range(1, 21)]
        assert percentile(values, 95) == 19.0

    def test_tiny_p_clamps_to_minimum(self):
        assert percentile([1.0, 2.0, 3.0], 0) == 1.0


class TestDist:
    def test_empty_set_sentinel_is_explicit(self):
        d = _dist([])
        assert d["n"] == 0
        assert d == {"n": 0, "p50": 0.0, "p95": 0.0, "p99": 0.0,
                     "mean": 0.0, "max": 0.0}

    def test_n_distinguishes_measured_zero_from_sentinel(self):
        measured = _dist([0.0])
        assert measured["n"] == 1
        assert measured["p99"] == 0.0  # a real measurement this time

    def test_summary_fields(self):
        d = _dist([0.2, 0.1, 0.3])
        assert d["n"] == 3
        assert d["p50"] == 0.2
        assert d["max"] == 0.3
        assert d["mean"] == pytest.approx(0.2)


class TestLoadReport:
    def test_every_request_accounted(self):
        svc = fast_service(max_queue=4, max_inflight=8)
        report = run_load(svc, rps=40, duration_s=0.5, seed=1)
        b = report.to_service_block()
        req = b["requests"]
        assert req["sent"] == report.sent == 20
        assert (req["ok"] + req["shed"] + req["timeout"] + req["error"]
                == req["sent"])
        assert req["unresolved"] == 0
        assert not report.unresolved

    def test_shed_requests_are_typed_admission(self):
        svc = fast_service(max_queue=1, max_inflight=2)
        report = run_load(svc, rps=60, duration_s=0.5, seed=2)
        shed = [r for r in report.results if r.status == "shed"]
        assert shed, "a 1-deep queue at 60 rps must shed"
        assert all(r.error_code == "admission" for r in shed)
        assert all(r.error.startswith("error[admission]:") for r in shed)
        assert report.to_service_block()["shed_rate"] > 0

    def test_poisoned_verifies_are_rejected_not_errors(self):
        svc = fast_service()
        report = run_load(svc, rps=20, duration_s=0.5, seed=3,
                          mix={"verify": 1}, bad_verify_pct=50)
        assert report.rejected > 0
        assert report.count("error") == 0
        b = report.to_service_block()
        assert b["requests"]["rejected"] == report.rejected
        assert b["verify"]["isolated_bad"] >= report.rejected

    def test_deadline_produces_timeouts(self):
        svc = fast_service(size=64)
        report = run_load(svc, rps=20, duration_s=0.5, seed=4,
                          mix={"prove": 1}, deadline_s=0.001)
        assert report.count("timeout") == report.sent
        assert all(r.error_code == "timeout" for r in report.results)

    def test_service_block_is_json_and_ledger_compatible(self):
        svc = fast_service()
        report = run_load(svc, rps=10, duration_s=0.3, seed=5)
        block = report.to_service_block()
        rec = make_record(kind="loadtest", curve="bn128", size=8,
                          workload="exponentiate", seed=5, stages=[],
                          service=block)
        text = json.dumps(rec, sort_keys=True)
        assert json.loads(text)["service"]["requests"]["sent"] == report.sent
        for key in ("latency_s", "queue_wait_s", "late_s", "throughput_rps",
                    "shed_rate", "timeout_rate", "error_rate",
                    "queue_depth", "breaker", "verify"):
            assert key in block, key

    def test_render_text_mentions_the_essentials(self):
        svc = fast_service()
        report = run_load(svc, rps=10, duration_s=0.3, seed=6)
        text = report.render_text()
        assert "p50" in text and "p99" in text
        assert "shed_rate" in text
        assert "throughput" in text

    def test_request_story_is_seed_deterministic(self):
        def kinds_for(seed):
            svc = fast_service()
            report = run_load(svc, rps=30, duration_s=0.4, seed=seed)
            return [r.kind for r in sorted(report.results,
                                           key=lambda r: abs(r.request_id))]

        assert kinds_for(7) == kinds_for(7)
        assert kinds_for(7) != kinds_for(8)

    def test_stop_event_aborts_remaining_schedule(self):
        svc = fast_service()

        async def main():
            await svc.start()
            stop = asyncio.Event()
            loop = asyncio.get_running_loop()
            loop.call_later(0.2, stop.set)
            try:
                return await run_loadtest(svc, rps=10, duration_s=30,
                                          seed=9, stop=stop)
            finally:
                await svc.drain()

        report = asyncio.run(main())
        assert report.sent < 300  # nowhere near the full 30s schedule
        assert not report.unresolved


    def test_a_stalled_loop_is_charged_to_the_requests_it_delayed(self):
        """Latency is timed from the due instant (no coordinated
        omission): requests due while the event loop stalled carry the
        stall as lateness, and their latency includes it."""
        stall_s, rps = 0.3, 20
        svc = fast_service()
        stall = {}

        def block_the_loop():
            stall["t0"] = time.perf_counter()
            time.sleep(stall_s)
            stall["t1"] = time.perf_counter()

        async def main():
            await svc.start()
            asyncio.get_running_loop().call_later(0.05, block_the_loop)
            try:
                return await run_loadtest(svc, rps=rps, duration_s=0.6,
                                          mix={"verify": 1}, seed=3)
            finally:
                await svc.drain()

        report = asyncio.run(main())
        delayed = [r for r in report.results if r.late_s > 1 / rps]
        assert len(delayed) >= stall_s * rps - 2
        for r in delayed:
            # Submitted once the loop ran again, and charged for the wait.
            assert r.start_s >= stall["t1"] - svc._t0 - 1e-3
            assert r.latency_s >= r.late_s
            assert r.latency_s == pytest.approx(r.late_s + r.total_s)
        block = report.to_service_block()
        assert block["late_s"]["n"] == report.sent
        assert block["late_s"]["max"] >= stall_s - 1 / rps
        assert block["latency_s"]["max"] >= block["late_s"]["max"]
        assert report.violations == []


class TestLoadtestGate:
    """``loadtest`` exits 1 on exactly what ``LoadReport.violations``
    lists: a request that resolves untyped, or one whose phases do not add
    up to its total."""

    @staticmethod
    def loadtest(*argv):
        lines = []
        code = main(["loadtest", "--size", "8", "--rps", "10", "--duration",
                     "0.3", *argv], out=lines.append)
        return code, "\n".join(lines)

    def test_untyped_error_is_not_resolved_typed(self):
        r = JobResult(request_id=1, kind="prove", status="error",
                      error_code="untyped",
                      error="error[untyped]: RuntimeError: boom")
        assert not r.resolved_typed

    @pytest.mark.parametrize("kind", ["prove", "verify"])
    def test_untyped_escape_fails_the_gate(self, monkeypatch, kind):
        def boom(self, kind, jobs, use_pool, seed):
            raise RuntimeError("boom")

        monkeypatch.setattr(ProvingService, "_compute", boom)
        code, out = self.loadtest("--mix", kind)
        assert code == 1
        assert "unresolved=3" in out
        assert "did not resolve typed" in out

    def test_phase_violation_fails_the_gate(self, monkeypatch):
        finish = Job.finish_phases

        def skewed(job):
            phases = finish(job)
            phases["settle"] += 1.0
            return phases

        monkeypatch.setattr(Job, "finish_phases", skewed)
        code, out = self.loadtest()
        assert code == 1
        assert "unresolved=0" in out
        assert "phases sum" in out

    @pytest.mark.parametrize("result,typed", [
        (JobResult(1, "prove", "ok"), True),
        (JobResult(2, "prove", "timeout", error_code="timeout"), True),
        (JobResult(3, "verify", "shed", error_code="admission"), True),
        (JobResult(4, "prove", "error", error_code=None), False),
        (JobResult(5, "prove", "lost", error_code="timeout"), False),
    ])
    def test_resolved_typed_needs_a_known_status_and_a_taxonomy_code(
            self, result, typed):
        assert result.resolved_typed is typed


def synthetic_report(results):
    return LoadReport(rps=1.0, duration_s=1.0, mix={"prove": 1}, seed=0,
                      results=results, wall_s=1.0, depth_samples=[0],
                      stats={})


class TestViolations:
    CLEAN = JobResult(1, "prove", "ok", total_s=0.5,
                      phases={"queue_wait": 0.1, "compute": 0.4})

    def test_clean_run_has_none(self):
        report = synthetic_report([self.CLEAN])
        assert report.violations == []
        assert "VIOLATION" not in report.render_text()

    def test_untyped_request_is_listed(self):
        escaped = JobResult(2, "verify", "error", error_code="untyped")
        report = synthetic_report([self.CLEAN, escaped])
        assert report.violations == [
            "request 2 (verify) did not resolve typed: status='error' "
            "error_code='untyped'"]

    def test_phase_gap_is_listed(self):
        skewed = JobResult(3, "prove", "ok", total_s=0.5,
                           phases={"compute": 0.3})
        report = synthetic_report([skewed])
        assert report.violations == [
            "request 3 (prove) phases sum 0.300000s != total 0.500000s"]

    def test_one_list_feeds_the_block_and_the_text(self):
        report = synthetic_report([
            JobResult(4, "prove", "bogus", total_s=0.2,
                      phases={"compute": 0.1})])
        assert len(report.violations) == 2  # untyped *and* inconsistent
        assert report.to_service_block()["violations"] == report.violations
        text = report.render_text()
        for line in report.violations:
            assert f"  VIOLATION: {line}" in text


class TestLoadtestService:
    """Without ``--faults`` the verb builds the service it always built;
    with it, the seeded no-sleep retry policy and the fast breaker."""

    @staticmethod
    def built_service(monkeypatch, *argv):
        built = []
        init = ProvingService.__init__

        def capture(self, *args, **kwargs):
            init(self, *args, **kwargs)
            built.append(self)

        monkeypatch.setattr(ProvingService, "__init__", capture)
        lines = []
        code = main(["loadtest", "--size", "8", "--rps", "10", "--duration",
                     "0.2", "--json", *argv], out=lines.append)
        assert code == 0, lines
        (service,) = built
        return service, json.loads(lines[0])

    def test_without_faults_the_service_is_unchanged(self, monkeypatch):
        service, record = self.built_service(monkeypatch)
        assert service.retry.sleeps
        assert service.retry.max_attempts == 3
        assert service.breaker.cooldown_s == CircuitBreaker().cooldown_s
        assert record["faults"] is None

    def test_faults_arm_the_seeded_retry_and_fast_breaker(self, monkeypatch):
        service, record = self.built_service(
            monkeypatch, "--faults", "2", "--max-attempts", "4")
        assert not service.retry.sleeps
        assert service.retry.max_attempts == 4
        assert service.breaker.cooldown_s == 0.05
        assert [spec["site"] for spec in record["faults"]] == [
            spec.site for spec in faults.schedule(0, 2, sites=SITES)]
