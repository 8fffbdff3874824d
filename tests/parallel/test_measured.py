"""Measured scaling harness: stage-time sweeps, speedup math, and fits.

Runs real (tiny) workflows per worker count and checks shapes and
invariants; it cannot assert actual speedup > 1 — CI boxes and this
container may have a single core — that is the benchmark's job
(``pool_speedup`` on ``pool-bls12_381-1024-w2``, bench/README.md).
"""

import pytest

from repro.harness.measured import (
    MEASURED_ARTIFACTS,
    _sweep,
    _stage_usage,
    fig6_measured,
    fig7_measured,
    measured_stage_times,
    table6_parallelism_measured,
)
from repro.perf.scaling import amdahl_fit, gustafson_fit, speedups_from_times
from repro.workflow import STAGES

SIZE = 16  # tiny cells: the harness runs full workflows per worker count


class TestSpeedupsFromTimes:
    def test_strong_scaling_form(self):
        sp = speedups_from_times({1: 8.0, 2: 4.0, 4: 2.0})
        assert sp == {1: 1.0, 2: 2.0, 4: 4.0}

    def test_weak_scaling_form(self):
        # Constant wall time while the problem doubles: perfect Gustafson.
        sp = speedups_from_times({1: 5.0, 2: 5.0, 4: 5.0},
                                 scale_factors={1: 1, 2: 2, 4: 4})
        assert sp == {1: 1.0, 2: 2.0, 4: 4.0}

    def test_requires_baseline(self):
        with pytest.raises(ValueError):
            speedups_from_times({2: 1.0})
        with pytest.raises(ValueError):
            speedups_from_times({1: 0.0, 2: 1.0})

    def test_skips_non_positive_times(self):
        assert 2 not in speedups_from_times({1: 1.0, 2: 0.0, 4: 1.0})

    def test_fits_recover_known_fractions(self):
        # Amdahl with s=0.2 exactly; the fit must recover it.
        s = 0.2
        sp = {n: 1.0 / (s + (1 - s) / n) for n in (1, 2, 4, 8)}
        serial, parallel = amdahl_fit(sp)
        assert serial == pytest.approx(0.2, abs=1e-9)
        assert parallel == pytest.approx(0.8, abs=1e-9)
        # Gustafson with s=0.3 exactly.
        s = 0.3
        ws = {n: n - s * (n - 1) for n in (1, 2, 4, 8)}
        serial, _ = gustafson_fit(ws)
        assert serial == pytest.approx(0.3, abs=1e-9)


class TestSweep:
    @pytest.mark.parametrize("given, swept", [
        ((2,), (1, 2)), ((4, 2, 2), (1, 2, 4)), ((1, 2), (1, 2)),
    ])
    def test_anchored_sorted_and_deduplicated(self, given, swept):
        assert _sweep(given) == swept

    @pytest.mark.parametrize("given", [(1,), (1, 1)])
    def test_one_count_alone_is_rejected(self, given):
        with pytest.raises(ValueError, match="worker count above 1"):
            _sweep(given)


class TestStageUsage:
    def test_uneven_workers(self):
        tasks = [
            {"pid": 11, "wall_s": 0.3, "queue_wait_s": 0.01,
             "encode_s": 0.002, "decode_s": 0.001},
            {"pid": 11, "wall_s": 0.1, "queue_wait_s": 0.0,
             "encode_s": 0.001, "decode_s": 0.001},
            {"pid": 12, "wall_s": 0.2, "queue_wait_s": None},
        ]
        u = _stage_usage(tasks, top=2, wall_top=0.5)
        assert u["busy_s"] == pytest.approx(0.6)
        assert u["utilization"] == pytest.approx(0.6 / (0.5 * 2))
        assert u["imbalance"] == pytest.approx(0.4 / 0.3)
        assert u["overhead_s"] == pytest.approx(0.015)
        assert u["n_tasks"] == 3

    def test_a_stage_without_tasks_is_idle_and_even(self):
        assert _stage_usage([], top=4, wall_top=0.2) == {
            "busy_s": 0.0, "utilization": 0.0, "imbalance": 1.0,
            "overhead_s": 0.0, "n_tasks": 0}

    def test_a_zero_wall_stage_reads_no_utilization(self):
        u = _stage_usage([{"pid": 1, "wall_s": 0.1}], top=2, wall_top=0.0)
        assert u["utilization"] == 0.0


class TestMeasuredStageTimes:
    def test_shape_and_positivity(self):
        times, telemetry = measured_stage_times("bn128", SIZE, (1, 2))
        assert set(times) == set(STAGES)
        for stage in STAGES:
            assert set(times[stage]) == {1, 2}
            assert all(t > 0 for t in times[stage].values())
        # One collector per worker count; the serial run dispatches nothing.
        assert set(telemetry) == {1, 2}
        assert not telemetry[1].tasks


class TestMeasuredExperiments:
    def test_fig6_shape(self):
        res = fig6_measured(size=SIZE, workers=(1, 2), with_reference=False)
        assert res.ident == "Fig6-measured"
        assert len(res.rows) == len(STAGES)
        # stage + 2 times + 2 speedups + serial % + 5 usage columns.
        assert all(len(row) == len(res.headers) == 11 for row in res.rows)
        assert res.headers[-5:] == ["eff", "busy s", "util", "imbal",
                                    "overhead s"]
        for stage in STAGES:
            fit = res.extras["fits"][stage]
            assert 0.0 <= fit["serial"] <= 1.0
            assert fit["serial"] + fit["parallel"] == pytest.approx(1.0)
        assert res.render()  # table renders without error

    def test_fig6_with_model_reference(self):
        res = fig6_measured(size=SIZE, workers=(1, 2), with_reference=True)
        assert set(res.extras["drift"]) <= set(STAGES)
        for stage, sp in res.extras["modeled"].items():
            assert sp[1] == pytest.approx(1.0)
        assert res.headers[-1] == "model drift"
        for row in res.rows:
            assert row[-1] == res.extras["drift"].get(row[0], "-")

    def test_fig6_usage_adds_up_to_the_collector(self):
        res = fig6_measured(size=128, workers=(2,), with_reference=False)
        # 1 is always swept: it anchors every speedup.
        assert res.extras["workers"] == (1, 2)
        block = res.extras["worker_telemetry"]
        assert block["totals"]["tasks"] > 0
        usage = res.extras["usage"]
        assert set(usage) == set(STAGES)
        assert sum(u["busy_s"] for u in usage.values()) == pytest.approx(
            block["totals"]["busy_s"], abs=1e-4)
        assert sum(u["n_tasks"] for u in usage.values()) \
            == block["totals"]["tasks"]
        for stage, u in usage.items():
            assert u["efficiency"] == pytest.approx(
                res.extras["speedups"][stage][2] / 2)
            assert u["imbalance"] >= 1.0 and u["overhead_s"] >= 0.0

    @pytest.mark.parametrize("artifact, kwargs", [
        ("fig7", dict(base_size=8, with_reference=False)),
        ("table6", dict(size=SIZE)),
    ])
    def test_every_artifact_sweeps_the_one_worker_anchor(self, artifact,
                                                         kwargs):
        res = MEASURED_ARTIFACTS[artifact](workers=(2,), **kwargs)
        assert res.extras["workers"] == (1, 2)

    @pytest.mark.parametrize("artifact", sorted(MEASURED_ARTIFACTS))
    def test_one_worker_alone_is_rejected_before_running(self, artifact,
                                                         monkeypatch):
        from repro.harness import measured

        monkeypatch.setattr(measured, "measured_stage_times", None)
        with pytest.raises(ValueError, match="worker count above 1"):
            MEASURED_ARTIFACTS[artifact](workers=(1,))

    def test_fig7_shape(self):
        res = fig7_measured(base_size=8, workers=(1, 2),
                            with_reference=False)
        assert res.ident == "Fig7-measured"
        assert res.extras["base_size"] == 8
        assert len(res.rows) == len(STAGES)

    def test_table6_combines_both_fits(self):
        res = table6_parallelism_measured(size=SIZE, workers=(1, 2))
        assert res.ident == "Table6-measured"
        for row in res.rows:
            _stage, ss_ser, ss_par, ws_ser, ws_par = row
            assert ss_ser + ss_par == pytest.approx(100.0)
            assert ws_ser + ws_par == pytest.approx(100.0)

    def test_registry_covers_the_measured_artifacts(self):
        assert set(MEASURED_ARTIFACTS) == {"fig6", "fig7", "table6"}

    def test_rejecting_run_raises(self, monkeypatch):
        from repro import workflow as wf_mod

        monkeypatch.setattr(wf_mod.Workflow, "run_all",
                            lambda self, tracers=None: self.results)
        with pytest.raises(RuntimeError, match="rejected"):
            measured_stage_times("bn128", 8, (1,))
