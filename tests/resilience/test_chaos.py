"""Chaos-suite contract: every fault class at every site ends typed.

The matrix below is the PR's core acceptance test — a fault of every kind
injected at every pipeline stage and hot-path site must end in an
ACCEPTABLE status (recovered, or failed with the matching taxonomy
error).  An untyped traceback anywhere is a bug.
"""

import pytest

from repro.resilience import faults
from repro.resilience.chaos import run_chaos
from repro.resilience.faults import KINDS, FaultSpec

SIZE = 16  # small circuit: the matrix runs the full pipeline many times

STAGE_SITES = [s for s in faults.PIPELINE_SITES if s.startswith("stage:")]
KERNEL_SITES = [s for s in faults.PIPELINE_SITES if not s.startswith("stage:")]
#: The serialization sites the chaos run's round-trip reaches.
SERIALIZE_SITES = list(faults.ROUNDTRIP_SITES)
CHAOS_SITES = faults.PIPELINE_SITES + faults.ROUNDTRIP_SITES


class _Stop(Exception):
    pass


def _single(site, kind):
    return run_chaos(seed=0, size=SIZE, plan=[FaultSpec(site, kind, hit=1)])


class TestMatrix:
    @pytest.mark.parametrize("site", STAGE_SITES)
    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_every_kind_at_every_stage_is_acceptable(self, site, kind):
        report = _single(site, kind)
        assert report.acceptable, \
            f"{kind}@{site} broke the contract: {report.status} ({report.error})"

    @pytest.mark.parametrize("site", KERNEL_SITES + SERIALIZE_SITES)
    def test_transient_at_hot_paths_is_acceptable(self, site):
        report = _single(site, "transient")
        assert report.acceptable, \
            f"transient@{site} broke the contract: {report.status} ({report.error})"

    @pytest.mark.parametrize("site", STAGE_SITES)
    def test_single_retryable_stage_fault_recovers(self, site):
        # One transient fault against a 3-attempt budget must be absorbed.
        report = _single(site, "transient")
        assert report.recovered, f"{site}: {report.status} ({report.error})"
        assert report.counters["repro_resilience_retries_total"] == 1

    def test_msm_fault_degrades_not_retries(self):
        # A kernel fault is absorbed below the stage layer by the naive
        # fallback, so the stage itself never retries.
        report = _single("msm:pippenger", "transient")
        assert report.recovered
        assert report.counters["repro_resilience_msm_fallbacks_total"] == 1
        assert report.counters.get("repro_resilience_retries_total", 0) == 0

    def test_serialize_fault_retries_roundtrip(self):
        report = _single("serialize:proof", "corrupt")
        assert report.recovered
        assert report.counters["repro_resilience_retries_total"] == 1

    def test_oom_at_stage_fails_typed_fast(self):
        report = _single("stage:proving", "oom")
        assert report.status == "stage-failed"
        assert "resources" in report.error
        assert report.counters.get("repro_resilience_retries_total", 0) == 0


class TestSeededRuns:
    @pytest.mark.parametrize("seed", range(6))
    def test_scheduled_chaos_honors_contract(self, seed):
        report = run_chaos(seed=seed, n_faults=3, size=SIZE)
        assert report.acceptable, \
            f"seed {seed}: {report.status} ({report.error})"
        # The plan itself must be the seed's schedule.
        expected = faults.schedule(seed, 3, sites=CHAOS_SITES)
        assert [s.to_dict() | {"fired": False} for s in report.plan] == \
               [s.to_dict() for s in expected]

    @pytest.mark.parametrize("seed", range(8))
    def test_recovered_run_fired_its_whole_plan(self, seed):
        report = run_chaos(seed=seed, n_faults=4, size=SIZE)
        assert report.acceptable, \
            f"seed {seed}: {report.status} ({report.error})"
        assert {s.site for s in report.plan} <= set(CHAOS_SITES)
        if report.recovered:
            assert [s for s in report.plan if not s.fired] == []
            assert report.counters["repro_resilience_faults_injected_total"] \
                == len(report.plan)

    def test_plan_draws_only_reachable_sites(self, monkeypatch):
        # serialize:pk is instrumented, but no chaos run reaches it.
        drawn_from = []

        def spy(seed, n_faults, sites):
            drawn_from.extend(sites)
            raise _Stop  # before the pipeline runs

        monkeypatch.setattr(faults, "schedule", spy)
        with pytest.raises(_Stop):
            run_chaos(seed=0, n_faults=4, size=SIZE)
        assert sorted(drawn_from) == sorted(CHAOS_SITES)
        assert "serialize:pk" in faults.ALL_SITES
        assert "serialize:pk" not in drawn_from

    @pytest.mark.parametrize("site", SERIALIZE_SITES)
    def test_second_roundtrip_hit_is_reached(self, site):
        # *_to_bytes and *_from_bytes both check the site, so hit 2 fires
        # within one round-trip, which the retry then repeats.
        report = run_chaos(seed=0, size=SIZE,
                           plan=[FaultSpec(site, "corrupt", hit=2)])
        assert report.recovered
        assert report.plan[0].fired
        assert report.counters["repro_resilience_retries_total"] == 1

    def test_same_seed_same_report(self):
        a = run_chaos(seed=4, n_faults=3, size=SIZE).to_dict()
        b = run_chaos(seed=4, n_faults=3, size=SIZE).to_dict()
        assert a == b

    def test_report_shape(self):
        report = run_chaos(seed=0, n_faults=2, size=SIZE)
        d = report.to_dict()
        assert set(d) == {"seed", "curve", "size", "workload", "status",
                          "error", "plan", "counters"}
        assert all(k.startswith("repro_resilience_") for k in d["counters"])
        text = report.render_text()
        assert "outcome:" in text and "plan:" in text

    def test_text_report_prints_the_shared_plan_lines(self):
        report = run_chaos(seed=1, n_faults=2, size=SIZE)
        lines = report.render_text().splitlines()
        plan_lines = faults.render_plan(report.plan)
        assert lines[1:1 + len(plan_lines)] == plan_lines
        assert lines[1 + len(plan_lines)].startswith(
            f"outcome: {report.status}")

    def test_fault_free_run_recovers_trivially(self):
        report = run_chaos(seed=0, size=SIZE, plan=[])
        assert report.recovered
        assert report.error is None
