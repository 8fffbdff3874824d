"""Cross-process worker telemetry (docs/PARALLELISM.md, docs/OBSERVABILITY.md).

Covers the protocol end to end: metric-delta merge, the pool's task/map
records, the task bars built from those records, the ledger record's
``workers`` block, and the per-worker-lane chrome trace.  The per-stage usage columns built from the collector are
tested with ``fig6_measured`` (tests/parallel/test_measured.py).
"""

import json
import os

import pytest

from repro.obs import metrics, spans
from repro.obs.metrics import DEFAULT_BUCKETS, MetricsRegistry
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
        delta = {"histograms": {"repro_msm_size": {
            "boundaries": [2, 4], "counts": [0, 1, 0], "count": 1,
            "sum": 3}}}
        reg = MetricsRegistry().merge(delta)
        assert reg.histogram("repro_msm_size").boundaries == (2, 4)

    def test_boundary_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.observe("repro_msm_size", 8)  # default power-of-two buckets
        delta = {"histograms": {"repro_msm_size": {
            "boundaries": [0.5, 1.0], "counts": [1, 0, 0], "count": 1,
            "sum": 0.5}}}
        with pytest.raises(ValueError, match="boundaries"):
            reg.merge(delta)

    def test_merge_validates_new_names(self):
        with pytest.raises(ValueError, match="bad metric name"):
            MetricsRegistry().merge({"counters": {"Bad-Name": 1}})


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
        rec = tel.record_map(label="msm", task="t",
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
        assert len(tel.maps) == 1 and tel.maps[0]["workers"] == 2
        assert reg.counter("repro_parallel_tasks_total") == len(PAYLOADS)
        # One task bar per record, built from it, under the map's window.
        window = next(sp for sp in rec.root.walk()
                      if sp.name == "parallel:unit")
        bars = [sp for sp in rec.root.walk() if sp.name.startswith("task:")]
        assert bars == window.children
        assert len(bars) == len(tel.tasks)
        for bar, t in zip(bars, tel.tasks):
            assert bar.name == "task:selftest_square"
            assert bar.meta["lane"] == f"worker {t['pid']}"
            assert (bar.wall_s, bar.cpu_s) == (t["wall_s"], t["cpu_s"])
            assert bar.rss_peak_delta_kb == t["rss_peak_delta_kb"]
            assert bar.gc_collections == t["gc_collections"]
            for key in ("queue_wait_s", "decode_s", "encode_s",
                        "payload_bytes", "result_bytes"):
                assert bar.meta[key] == t[key]
            assert window.start_s <= bar.start_s
            assert bar.start_s <= window.start_s + window.wall_s
        assert window.meta["utilization"] == tel.maps[0]["utilization"]
        assert window.meta["imbalance"] == tel.maps[0]["imbalance"]

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

    def test_one_worker_pool_ships_full_blocks(self):
        # One worker is a forked process: its tasks cross the wire and
        # carry the same telemetry blocks as a wider pool's.
        with collecting_tasks() as tel:
            with WorkerPool(1) as pool:
                results, _ = pool.map("selftest_square", PAYLOADS,
                                      label="unit")
        assert results == [p["x"] ** 2 for p in PAYLOADS]
        assert len(tel.tasks) == len(PAYLOADS)
        pids = {t["pid"] for t in tel.tasks}
        assert len(pids) == 1 and os.getpid() not in pids
        for t in tel.tasks:
            assert t["ok"] is True
            assert t["payload_bytes"] > 0 and t["result_bytes"] > 0
        assert len(tel.maps) == 1 and tel.maps[0]["workers"] == 1


class TestWorkersBlock:
    def test_block_is_json_clean(self):
        with collecting_tasks() as tel:
            with WorkerPool(2) as pool:
                pool.map("selftest_square", PAYLOADS, label="unit")
        block = tel.to_workers_block()
        json.dumps(block)
        # Worker metric deltas merge into the run's registry alone.
        assert "metrics" not in block
        assert all("gc_collections" in t for t in block["tasks"])
