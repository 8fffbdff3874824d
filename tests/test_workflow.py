"""Workflow orchestration tests (Fig. 1's five stages)."""

import pytest

from repro.curves import BN128
from repro.harness.circuits import build_exponentiate
from repro.obs import metrics, spans
from repro.perf.trace import Tracer
from repro.workflow import STAGES, Workflow


def make_workflow(n=8, seed=0):
    builder, inputs = build_exponentiate(BN128, n)
    return Workflow(BN128, builder, inputs, seed=seed)


class TestStageOrder:
    def test_canonical_stages(self):
        assert STAGES == ("compile", "setup", "witness", "proving", "verifying")

    def test_run_all_accepts(self):
        wf = make_workflow()
        results = wf.run_all()
        assert wf.accepted is True
        assert set(results) == set(STAGES)
        assert all(r.elapsed >= 0 for r in results.values())

    def test_unknown_stage(self):
        with pytest.raises(ValueError, match="unknown stage"):
            make_workflow().run_stage("fuzzing")

    def test_setup_requires_compile(self):
        with pytest.raises(RuntimeError, match="compile"):
            make_workflow().run_stage("setup")

    def test_proving_requires_setup_and_witness(self):
        wf = make_workflow()
        wf.run_stage("compile")
        with pytest.raises(RuntimeError):
            wf.run_stage("proving")
        wf.run_stage("setup")
        with pytest.raises(RuntimeError, match="witness"):
            wf.run_stage("proving")

    def test_verifying_requires_proof(self):
        wf = make_workflow()
        wf.run_stage("compile")
        with pytest.raises(RuntimeError):
            wf.run_stage("verifying")

    def test_ordering_guard_is_typed(self):
        # The guard is a taxonomy leaf (error[order]) that still
        # satisfies the RuntimeError expectations above.
        from repro.resilience.errors import StageOrderError

        with pytest.raises(StageOrderError, match="compile") as exc_info:
            make_workflow().run_stage("setup")
        assert exc_info.value.one_line().startswith("error[order]:")


class TestArtifacts:
    def test_artifact_flow(self):
        wf = make_workflow()
        circ = wf.run_stage("compile").artifact
        assert circ.n_constraints == 8
        pk, vk = wf.run_stage("setup").artifact
        witness = wf.run_stage("witness").artifact
        assert circ.r1cs.is_satisfied(witness)
        proof = wf.run_stage("proving").artifact
        assert proof.size_bytes() > 0
        assert wf.run_stage("verifying").artifact is True

    def test_seed_reproducibility(self):
        wf1, wf2 = make_workflow(seed=42), make_workflow(seed=42)
        wf1.run_all()
        wf2.run_all()
        assert wf1.proof.a == wf2.proof.a
        assert wf1.pk.alpha1 == wf2.pk.alpha1

    def test_different_seeds_differ(self):
        wf1, wf2 = make_workflow(seed=1), make_workflow(seed=2)
        wf1.run_all()
        wf2.run_all()
        assert wf1.proof.a != wf2.proof.a


class TestTracedRuns:
    def test_per_stage_tracers(self):
        wf = make_workflow()
        tracers = {stage: Tracer(label=stage) for stage in STAGES}
        wf.run_all(tracers)
        assert wf.accepted is True
        for stage in STAGES:
            assert tracers[stage].clock > 0, stage

    def test_traced_result_matches_untraced(self):
        plain = make_workflow(seed=3)
        plain.run_all()
        traced = make_workflow(seed=3)
        traced.run_all({stage: Tracer() for stage in STAGES})
        assert plain.proof.a == traced.proof.a
        assert plain.accepted == traced.accepted

    def test_result_records_tracer(self):
        wf = make_workflow()
        tr = Tracer()
        res = wf.run_stage("compile", tr)
        assert res.tracer is tr
        assert wf.results["compile"] is res


class TestTelemetry:
    def test_to_record_shape(self):
        wf = make_workflow()
        rec = wf.run_stage("compile").to_record()
        assert rec == {"stage": "compile",
                       "elapsed_s": pytest.approx(wf.results["compile"].elapsed,
                                                  abs=1e-6),
                       "span": None}

    def test_untelemetered_run_records_no_span(self):
        wf = make_workflow()
        wf.run_all()
        assert all(r.span is None for r in wf.results.values())

    def test_stage_spans_recorded_with_counters(self):
        wf = make_workflow()
        with spans.recording("wf") as rec:
            wf.run_all({stage: Tracer() for stage in STAGES})
        assert [sp.name for sp in rec.root.children] == list(STAGES)
        proving = wf.results["proving"].span
        assert proving is rec.root.children[3]
        assert proving.wall_s > 0
        assert proving.meta == {"curve": "bn128", "circuit": wf.builder.name}
        # Tracer primitive counts are attached to the span.
        assert any(k.startswith("bigint_") for k in proving.counters)
        assert proving.to_dict() == wf.results["proving"].to_record()["span"]

    def test_run_all_counts_into_the_active_registry(self):
        wf = make_workflow()
        with metrics.collecting() as registry:
            wf.run_all()
        counters = registry.snapshot()["counters"]
        assert counters["repro_groth16_prove_total"] == 1
        assert counters["repro_groth16_verify_total"] == 1
        # Untraced runs dispatch MSMs through the optimized kernels
        # (docs/KERNELS.md): GLV on G1, signed-digit on G2.
        msm_calls = sum(counters.get(name, 0) for name in (
            "repro_msm_pippenger_calls_total",
            "repro_msm_wnaf_calls_total",
            "repro_msm_glv_calls_total",
        ))
        assert msm_calls >= 4
        assert counters["repro_msm_glv_calls_total"] >= 1
