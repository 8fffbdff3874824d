"""Measured scaling harness: stage-time sweeps, speedup math, and fits.

Runs real (tiny) workflows per worker count and checks shapes and
invariants; it cannot assert actual speedup > 1 — CI boxes and this
container may have a single core — that is the benchmark's job
(``pool_speedup`` on ``pool-bls12_381-1024-w2``, bench/README.md).
"""

import pytest

from repro.harness.measured import (
    DEFAULT_WORKERS,
    MEASURED_ARTIFACTS,
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


class TestMeasuredStageTimes:
    def test_shape_and_positivity(self):
        times = measured_stage_times("bn128", SIZE, (1, 2))
        assert set(times) == set(STAGES)
        for stage in STAGES:
            assert set(times[stage]) == {1, 2}
            assert all(t > 0 for t in times[stage].values())

    def test_repeats_take_the_minimum(self):
        once = measured_stage_times("bn128", SIZE, (1,), repeats=1)
        best = measured_stage_times("bn128", SIZE, (1,), repeats=2)
        # Not comparable run-to-run in magnitude, but both must be sane.
        for stage in STAGES:
            assert best[stage][1] > 0 and once[stage][1] > 0


class TestMeasuredExperiments:
    def test_fig6_shape(self):
        res = fig6_measured(size=SIZE, workers=(1, 2), with_reference=False)
        assert res.ident == "Fig6-measured"
        assert len(res.rows) == len(STAGES)
        # stage + 2 times + 2 speedups + serial% per row.
        assert all(len(row) == len(res.headers) == 6 for row in res.rows)
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
        assert all(w >= 1 for w in DEFAULT_WORKERS)

    def test_rejecting_run_raises(self, monkeypatch):
        from repro import workflow as wf_mod

        monkeypatch.setattr(wf_mod.Workflow, "run_all",
                            lambda self, tracers=None: self.results)
        with pytest.raises(RuntimeError, match="rejected"):
            measured_stage_times("bn128", 8, (1,))
