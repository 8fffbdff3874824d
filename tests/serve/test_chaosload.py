"""Chaos under load: ``loadtest --faults N`` arms a seeded fault plan once
the service has started, and every request still resolves typed — zero
hangs, zero untyped escapes — with the whole story replaying
deterministically per seed (phases that add up under the same runs:
``test_phases.py::TestChaosUnderLoad``).

The library-level runs are built the way the verb builds them:
``run_loadtest`` inside ``faults.injecting`` armed after ``start()``."""

import asyncio
import json

import pytest

from repro.cli import main
from repro.obs.ledger import make_record
from repro.resilience import faults
from repro.resilience.faults import FaultSpec
from repro.resilience.retry import RetryPolicy
from repro.serve import SERVE_SITES, CircuitBreaker, ProvingService, run_loadtest

#: The sites ``loadtest --faults`` draws its schedule from.
SITES = SERVE_SITES + ("msm:pippenger", "ntt:transform")


def chaos_run(seed=0, n_faults=4, plan=None, size=8, rps=20, duration_s=0.5,
              mix=None, workers=None):
    """One seeded load run with *plan* (default: the seed's schedule over
    :data:`SITES`) armed after ``start()``; returns ``(plan, LoadReport)``."""
    if plan is None:
        plan = faults.schedule(seed, n_faults, sites=SITES)
    service = ProvingService(
        size=size, workers=workers, seed=seed,
        retry=RetryPolicy(max_attempts=3, seed=seed, sleep=None),
        breaker=CircuitBreaker(cooldown_s=0.05))

    async def run():
        await service.start()
        try:
            with faults.injecting(plan):
                return await run_loadtest(service, rps=rps,
                                          duration_s=duration_s, mix=mix,
                                          seed=seed)
        finally:
            await service.drain()

    return plan, asyncio.run(run())


class TestContract:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_all_requests_resolve_typed(self, seed):
        _, load = chaos_run(seed=seed, n_faults=4)
        assert load.violations == []
        block = load.to_service_block()
        assert block["requests"]["unresolved"] == 0
        assert block["requests"]["sent"] == 10

    def test_faults_actually_fire(self):
        # Pinned plan: both service sites, first hit — guaranteed to
        # trigger under a prove+verify mix.
        plan = [FaultSpec("serve:prove", "transient", hit=1),
                FaultSpec("serve:verify", "transient", hit=1)]
        _, load = chaos_run(seed=0, plan=plan)
        assert all(spec.fired for spec in plan)
        assert load.violations == []
        assert load.to_service_block()["retries"] >= 2

    def test_injected_timeout_resolves_as_timeout(self):
        plan = [FaultSpec("serve:prove", "timeout", hit=1)]
        _, load = chaos_run(seed=0, plan=plan, mix={"prove": 1})
        assert load.violations == []
        assert load.error_codes().get("timeout", 0) >= 1

    def test_oom_fault_is_typed_not_retried(self):
        plan = [FaultSpec("serve:prove", "oom", hit=1)]
        _, load = chaos_run(seed=0, plan=plan, mix={"prove": 1})
        assert load.violations == []
        bad = [r for r in load.results if r.status == "error"]
        assert len(bad) == 1
        assert bad[0].error_code == "resources"
        assert bad[0].attempts == 1

    def test_under_load_with_workers_stays_typed(self):
        _, load = chaos_run(seed=5, n_faults=3, workers=2, size=64, rps=10)
        assert load.violations == []

    def test_schedule_draws_from_serve_sites(self):
        lines = []
        code = main(["loadtest", "--faults", "6", "--seed", "11", "--size",
                     "8", "--rps", "20", "--duration", "0.5", "--json"],
                    out=lines.append)
        assert code == 0, lines
        plan = json.loads(lines[0])["faults"]
        assert len(plan) == 6
        assert all(spec["site"] in SITES for spec in plan)


class TestReport:
    def test_json_round_trip(self):
        plan, load = chaos_run(seed=3, n_faults=3)
        record = make_record(
            kind="loadtest", curve="bn128", size=8, workload="exponentiate",
            seed=3, stages=[], service=load.to_service_block(),
            faults=[spec.to_dict() for spec in plan])
        data = json.loads(json.dumps(record))
        assert data["faults"] == [spec.to_dict() for spec in plan]
        assert data["service"]["requests"]["sent"] == load.sent
        assert data["service"]["violations"] == []

    def test_render_text_shows_plan_and_outcome(self):
        plan, load = chaos_run(seed=4, n_faults=2)
        plan_text = "\n".join(faults.render_plan(plan))
        assert plan_text.startswith("plan: 2 fault(s), ")
        assert plan_text.count(" at ") == 2
        text = load.render_text()
        assert "unresolved=0" in text
        assert "VIOLATION" not in text

    def test_same_seed_same_story(self):
        plan_a, a = chaos_run(seed=6, n_faults=4)
        plan_b, b = chaos_run(seed=6, n_faults=4)
        assert [s.site for s in plan_a] == [s.site for s in plan_b]
        assert [r.kind for r in a.results] == [r.kind for r in b.results]
        assert a.error_codes() == b.error_codes()
