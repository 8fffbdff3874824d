"""Cross-process worker telemetry (docs/PARALLELISM.md, docs/OBSERVABILITY.md).

Covers the protocol end to end: metric-delta merge, span grafting with
timeline rebase, the pool's task/map records on both backends, pool-level
metrics, the ledger record's ``workers`` block, the per-worker-lane chrome
trace, and the ``parallel-report`` analysis.
"""

import json

import pytest

from repro.context import RUN
from repro.obs import metrics, spans
from repro.obs.metrics import DEFAULT_BUCKETS, TIME_BUCKETS, MetricsRegistry
from repro.obs.spans import Span
from repro.obs.worker import WorkerTelemetry, collecting_tasks
from repro.parallel.pool import WorkerPool

PAYLOADS = [{"x": i} for i in range(8)]


class TestMetricsMerge:
    def test_counters_add_and_gauges_last_write(self):
        reg = MetricsRegistry()
        reg.inc("repro_msm_calls_total", 2)
        reg.set_gauge("repro_pool_workers", 1)
        delta = MetricsRegistry()
        delta.inc("repro_msm_calls_total", 3)
        delta.inc("repro_ntt_calls_total")
        delta.set_gauge("repro_pool_workers", 4)
        reg.merge(delta.snapshot())
        assert reg.counter("repro_msm_calls_total") == 5
        assert reg.counter("repro_ntt_calls_total") == 1
        assert reg.gauge("repro_pool_workers") == 4

    def test_histograms_merge_elementwise(self):
        reg = MetricsRegistry()
        reg.observe("repro_msm_size", 8)
        delta = MetricsRegistry()
        delta.observe("repro_msm_size", 8)
        delta.observe("repro_msm_size", 1024)
        reg.merge(delta.snapshot())
        hist = reg.histogram("repro_msm_size")
        assert hist.count == 3
        assert hist.total == 8 + 8 + 1024
        assert hist.counts[list(DEFAULT_BUCKETS).index(8)] == 2

    def test_histogram_created_from_snapshot_boundaries(self):
        delta = MetricsRegistry()
        delta.observe("repro_parallel_task_wall_seconds", 0.002,
                      buckets=TIME_BUCKETS)
        reg = MetricsRegistry().merge(delta.snapshot())
        assert reg.histogram("repro_parallel_task_wall_seconds").boundaries \
            == TIME_BUCKETS

    def test_boundary_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.observe("repro_msm_size", 8)  # default power-of-two buckets
        delta = MetricsRegistry()
        delta.observe("repro_msm_size", 0.5, buckets=TIME_BUCKETS)
        with pytest.raises(ValueError, match="boundaries"):
            reg.merge(delta.snapshot())

    def test_merge_validates_new_names(self):
        with pytest.raises(ValueError, match="bad metric name"):
            MetricsRegistry().merge({"counters": {"Bad-Name": 1}})


class TestSpanGraft:
    def _subtree(self):
        return {
            "name": "task:msm_window_slice", "start_s": 0.5, "wall_s": 0.25,
            "cpu_s": 0.2, "rss_peak_delta_kb": 12, "gc_collections": 0,
            "children": [{"name": "inner", "start_s": 0.6, "wall_s": 0.1,
                          "cpu_s": 0.1, "rss_peak_delta_kb": 0,
                          "gc_collections": 0}],
        }

    def test_from_dict_round_trips(self):
        sp = Span.from_dict(self._subtree(), depth=2)
        assert sp.depth == 2 and sp.children[0].depth == 3
        assert sp.to_dict() == self._subtree()

    def test_graft_rebases_and_tags(self):
        with spans.recording("parent") as rec:
            with spans.span("dispatch"):
                grafted = spans.graft(self._subtree(), offset_s=2.0,
                                      worker_pid=123)
        assert grafted.meta["worker_pid"] == 123
        assert grafted.start_s == pytest.approx(2.0)
        # The child keeps its relative position inside the subtree.
        assert grafted.children[0].start_s == pytest.approx(2.1)
        dispatch = rec.root.children[0]
        assert dispatch.children == [grafted]

    def test_graft_is_noop_when_not_recording(self):
        assert RUN.spans is None
        assert spans.graft(self._subtree()) is None


class TestCollector:
    def test_record_map_aggregates(self):
        tel = WorkerTelemetry()
        tel.begin_stage("proving")
        tasks = [
            {"pid": 11, "task": "t", "label": "msm", "ok": True,
             "wall_s": 0.2, "cpu_s": 0.1, "queue_wait_s": 0.01,
             "encode_s": 0.001, "decode_s": 0.002, "payload_bytes": 10,
             "result_bytes": 20},
            {"pid": 12, "task": "t", "label": "msm", "ok": True,
             "wall_s": 0.1, "cpu_s": 0.1, "queue_wait_s": 0.02,
             "encode_s": 0.001, "decode_s": 0.001, "payload_bytes": 10,
             "result_bytes": 20},
        ]
        rec = tel.record_map(label="msm", task="t", backend="process",
                             workers=2, start_s=0.0, wall_s=0.2,
                             task_records=tasks)
        assert rec["stage"] == "proving"
        assert rec["busy_s"] == pytest.approx(0.3)
        assert rec["utilization"] == pytest.approx(0.3 / 0.4, abs=1e-3)
        assert rec["imbalance"] == pytest.approx(0.2 / 0.15, abs=1e-3)
        per = tel.per_worker()
        assert per[11]["busy_s"] == pytest.approx(0.2)
        assert per[12]["tasks"] == 1
        assert tel.stage_tasks("proving") == tasks
        assert tel.dispatch_overhead_s() == pytest.approx(0.035)
        assert tel.imbalance() == pytest.approx(0.2 / 0.15, abs=1e-3)
        json.dumps(tel.to_workers_block())


class TestPoolIntegration:
    def test_process_backend_ships_and_merges(self):
        with collecting_tasks() as tel, metrics.collecting() as reg, \
                spans.recording("unit") as rec:
            with WorkerPool(2) as pool:
                results, _ = pool.map("selftest_square", PAYLOADS,
                                      label="unit")
        assert results == [p["x"] ** 2 for p in PAYLOADS]
        assert len(tel.tasks) == len(PAYLOADS)
        for t in tel.tasks:
            assert t["ok"] is True
            assert t["queue_wait_s"] >= 0.0
            assert t["payload_bytes"] > 0 and t["result_bytes"] > 0
        assert len(tel.maps) == 1 and tel.maps[0]["backend"] == "process"
        # Pool-level series in the parent registry.
        assert reg.counter("repro_parallel_tasks_total") == len(PAYLOADS)
        assert reg.histogram("repro_parallel_task_wall_seconds").count \
            == len(PAYLOADS)
        assert reg.histogram("repro_parallel_queue_wait_seconds").count \
            == len(PAYLOADS)
        # Trivial tasks in a wide window: utilization may round to 0.0, but
        # the gauge must be present and sane.
        assert 0 <= reg.gauge("repro_parallel_worker_utilization") <= 1.0
        assert reg.gauge("repro_parallel_chunk_imbalance_ratio") >= 1.0
        # Worker span lanes grafted under the dispatching span.
        grafted = [sp for sp in rec.root.walk() if "lane" in sp.meta]
        assert len(grafted) == len(PAYLOADS)
        assert {sp.meta["lane"] for sp in grafted} == \
            {f"worker {t['pid']}" for t in tel.tasks}
        # Each grafted task bar carries its record's wire costs.
        for sp in grafted:
            assert sp.meta["payload_bytes"] > 0
            assert sp.meta["result_bytes"] > 0
        window = next(sp for sp in rec.root.walk()
                      if sp.name == "parallel:unit")
        assert window.meta["utilization"] == tel.maps[0]["utilization"]
        assert window.meta["imbalance"] == tel.maps[0]["imbalance"]

    def test_serial_backend_records_light_blocks(self):
        with collecting_tasks() as tel, spans.recording("unit") as rec:
            with WorkerPool(1) as pool:
                results, _ = pool.map("selftest_square", PAYLOADS,
                                      label="unit")
        assert results == [p["x"] ** 2 for p in PAYLOADS]
        assert len(tel.tasks) == len(PAYLOADS)
        for t in tel.tasks:
            assert t["queue_wait_s"] == 0.0
            assert t["payload_bytes"] == 0  # nothing crossed a boundary
        # Inline tasks span directly under the dispatching span (no graft).
        names = [sp.name for sp in rec.root.walk()]
        assert names.count("task:selftest_square") == len(PAYLOADS)

    def test_failed_task_still_raises_typed(self):
        with collecting_tasks():
            with WorkerPool(2) as pool:
                with pytest.raises(ValueError, match="boom"):
                    pool.map("selftest_fail",
                             [{"type": "ValueError", "message": "boom"}] * 2)

    def test_no_collector_ships_no_blocks(self):
        with WorkerPool(2) as pool:
            pool.map("selftest_square", PAYLOADS)
            # The collector-off path must leave no residue in the pool's
            # legacy per-pid stats beyond tasks/wall/cpu.
            for stats in pool.worker_stats.values():
                assert set(stats) == {"tasks", "wall_s", "cpu_s"}


class TestWorkersBlock:
    def test_block_is_json_clean(self):
        with collecting_tasks() as tel:
            with WorkerPool(2) as pool:
                pool.map("selftest_square", PAYLOADS, label="unit")
        json.dumps(tel.to_workers_block())


class TestParallelReport:
    @pytest.fixture(scope="class")
    def report(self):
        from repro.obs.worker import build_parallel_report

        return build_parallel_report(curve="bn128", size=128,
                                     workers=(1, 2), repeats=1)

    def test_stages_and_busy_attribution(self, report):
        assert report.totals["tasks"] > 0
        assert set(report.stages) == {"compile", "setup", "witness",
                                      "proving", "verifying"}
        total_busy = sum(s["busy_s"] for s in report.stages.values())
        assert total_busy == pytest.approx(report.totals["busy_s"], abs=1e-4)
        for s in report.stages.values():
            assert s["efficiency"] == pytest.approx(s["speedup"] / 2,
                                                    abs=1e-3)
            assert s["efficiency_drift"] == pytest.approx(
                s["efficiency"] - s["predicted_efficiency"], abs=1e-3)

    def test_renders_and_serializes(self, report):
        text = report.render_text()
        assert "parallel report:" in text and "pool: utilization" in text
        json.dumps(report.to_dict())

    def test_one_is_added_to_anchor_speedup(self):
        from repro.obs.worker import build_parallel_report

        report = build_parallel_report(curve="bn128", size=64,
                                       workers=(2,), repeats=1)
        assert report.workers == (1, 2)
