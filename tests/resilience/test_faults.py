"""Fault-injection framework tests: determinism, one-shot firing, guards."""

import pytest

from repro.context import RUN
from repro.obs import metrics
from repro.resilience.errors import (
    ArtifactCorruption,
    ResourceExhausted,
    StageTimeout,
    TransientFault,
)
from repro.resilience.faults import (
    ALL_SITES,
    MAX_HIT,
    PIPELINE_SITES,
    FaultInjector,
    FaultSpec,
    fire,
    injecting,
    render_plan,
    schedule,
)


class TestFaultSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec("stage:setup", "meteor")

    def test_bad_hit_rejected(self):
        with pytest.raises(ValueError, match="hit"):
            FaultSpec("stage:setup", "transient", hit=0)


class TestInjector:
    def test_fires_on_the_nth_hit_then_consumed(self):
        inj = FaultInjector([FaultSpec("msm:pippenger", "transient", hit=3)])
        inj.check("msm:pippenger")
        inj.check("msm:pippenger")
        with pytest.raises(TransientFault, match="msm:pippenger"):
            inj.check("msm:pippenger")
        # Consumed: later hits at the site pass.
        inj.check("msm:pippenger")
        assert [s.fired for s in inj.plan] == [True]

    def test_sites_are_independent(self):
        inj = FaultInjector([FaultSpec("ntt:transform", "corrupt", hit=1)])
        inj.check("msm:pippenger")  # different site: no fire
        with pytest.raises(ArtifactCorruption):
            inj.check("ntt:transform")

    def test_kind_maps_to_taxonomy_class(self):
        cases = {
            "transient": TransientFault,
            "timeout": StageTimeout,
            "corrupt": ArtifactCorruption,
            "oom": ResourceExhausted,
        }
        for kind, cls in cases.items():
            inj = FaultInjector([FaultSpec("stage:setup", kind)])
            with pytest.raises(cls):
                inj.check("stage:setup")

    def test_arm_returns_the_due_spec_without_firing(self):
        spec = FaultSpec("ntt:transform", "transient", hit=2)
        inj = FaultInjector([spec])
        assert inj.arm("ntt:transform") is None
        assert inj.arm("ntt:transform") is spec
        assert not spec.fired
        # Armed but unfired: the hit is counted, so it never comes due again.
        assert inj.arm("ntt:transform") is None
        assert inj.hits == {"ntt:transform": 3}

    def test_check_is_arm_then_fire(self):
        spec = FaultSpec("stage:setup", "corrupt", hit=1)
        inj = FaultInjector([spec])
        with metrics.collecting() as reg:
            with pytest.raises(ArtifactCorruption, match="stage:setup"):
                inj.check("stage:setup")
        assert spec.fired and inj.fired() == [spec] and inj.pending() == []
        assert reg.counter("repro_resilience_faults_injected_total") == 1

    def test_fire_marks_counts_and_returns_the_fault(self):
        spec = FaultSpec("msm:pippenger", "oom", hit=2)
        with metrics.collecting() as reg:
            exc = fire(spec)
        assert isinstance(exc, ResourceExhausted)
        assert "msm:pippenger (hit 2)" in str(exc)
        assert spec.fired
        assert reg.counter("repro_resilience_faults_injected_total") == 1

    def test_injection_counts_in_metrics(self):
        inj = FaultInjector([FaultSpec("stage:setup", "transient")])
        with metrics.collecting() as reg:
            with pytest.raises(TransientFault):
                inj.check("stage:setup")
        assert reg.counter("repro_resilience_faults_injected_total") == 1


class TestSchedule:
    def test_deterministic_from_seed(self):
        a = schedule(7, 5)
        b = schedule(7, 5)
        assert [(s.site, s.kind, s.hit) for s in a] == \
               [(s.site, s.kind, s.hit) for s in b]

    def test_different_seeds_differ(self):
        a = [(s.site, s.kind, s.hit) for s in schedule(0, 8)]
        b = [(s.site, s.kind, s.hit) for s in schedule(1, 8)]
        assert a != b

    def test_stage_sites_pinned_to_first_hit(self):
        # Stage boundaries are checked once per attempt; a hit > 1 would
        # require a preceding retry and could never fire in a clean run.
        plan = schedule(3, 9)
        for spec in plan:
            if spec.site.startswith("stage:"):
                assert spec.hit == 1

    @pytest.mark.parametrize("seed", range(12))
    def test_never_repeats_a_site_hit_pair(self, seed):
        # Two specs on one (site, hit) would fire only once between them.
        for sites, n in ((PIPELINE_SITES, 9), (ALL_SITES, 13)):
            pairs = [(s.site, s.hit) for s in schedule(seed, n, sites=sites)]
            assert len(set(pairs)) == len(pairs)

    def test_full_plan_covers_every_pair(self):
        # 5 stage sites at hit 1, msm and ntt at hits 1 and 2.
        pairs = {(s.site, s.hit) for s in schedule(0, 9)}
        assert pairs == (
            {(site, 1) for site in PIPELINE_SITES}
            | {("msm:pippenger", 2), ("ntt:transform", 2)})

    def test_more_faults_than_pairs_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            schedule(0, 10)

    def test_hits_stay_within_max_hit(self):
        for spec in schedule(5, 13, sites=ALL_SITES):
            assert 1 <= spec.hit <= MAX_HIT


class TestInjectingContext:
    def test_installs_and_clears_current(self):
        assert RUN.faults is None
        with injecting([FaultSpec("stage:setup", "transient")]) as inj:
            assert RUN.faults is inj
        assert RUN.faults is None

    def test_cleared_even_after_fault(self):
        with pytest.raises(TransientFault):
            with injecting([FaultSpec("x", "transient")]) as inj:
                inj.check("x")
        assert RUN.faults is None


class TestRenderPlan:
    def test_count_line_then_one_line_per_spec(self):
        plan = [FaultSpec("serve:prove", "transient", hit=1),
                FaultSpec("ntt:transform", "oom", hit=2)]
        assert render_plan(plan) == [
            "plan: 2 fault(s), 0 fired",
            "  [pending] transient at serve:prove (hit 1)",
            "  [pending] oom       at ntt:transform (hit 2)",
        ]

    def test_fired_flags_are_read_at_render_time(self):
        inj = FaultInjector([FaultSpec("stage:setup", "transient"),
                             FaultSpec("stage:proving", "transient")])
        with pytest.raises(TransientFault):
            inj.check("stage:setup")
        lines = render_plan(inj.plan)
        assert lines[0] == "plan: 2 fault(s), 1 fired"
        assert lines[1].startswith("  [fired  ] transient at stage:setup")
        assert lines[2].startswith("  [pending] transient at stage:proving")

    def test_empty_plan(self):
        assert render_plan([]) == ["plan: 0 fault(s), 0 fired"]
