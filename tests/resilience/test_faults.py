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
from repro.resilience.faults import FaultInjector, FaultSpec, injecting, schedule


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
        plan = schedule(3, 50)
        for spec in plan:
            if spec.site.startswith("stage:"):
                assert spec.hit == 1


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
