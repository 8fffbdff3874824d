"""Metrics registry tests: counters, gauges, fixed-bucket histograms,
the process-global guard, and the text/JSON renderings."""

import json

import pytest

from repro.context import RUN
from repro.obs.metrics import DEFAULT_BUCKETS, Histogram, MetricsRegistry, collecting


class TestCounters:
    def test_inc_and_read(self):
        r = MetricsRegistry()
        r.inc("repro_test_calls_total")
        r.inc("repro_test_calls_total", 4)
        assert r.counter("repro_test_calls_total") == 5

    def test_missing_counter_reads_zero(self):
        assert MetricsRegistry().counter("repro_test_nothing_total") == 0

    def test_bad_name_rejected(self):
        r = MetricsRegistry()
        for bad in ("msm_calls", "repro_UPPER_total", "repro", "repro_a-b"):
            with pytest.raises(ValueError, match="bad metric name"):
                r.inc(bad)

    def test_name_checked_once_then_hot(self):
        r = MetricsRegistry()
        r.inc("repro_test_hot_total")
        # Second increment takes the try-path (no validation): still counts.
        r.inc("repro_test_hot_total")
        assert r.counter("repro_test_hot_total") == 2


class TestGauges:
    def test_last_write_wins(self):
        r = MetricsRegistry()
        r.set_gauge("repro_test_bytes", 10)
        r.set_gauge("repro_test_bytes", 7)
        assert r.gauge("repro_test_bytes") == 7
        assert r.gauge("repro_test_other", default=-1) == -1


class TestHistogram:
    def test_fixed_boundaries_bucketing(self):
        h = Histogram(boundaries=(1, 2, 4, 8))
        for v in (1, 2, 3, 4, 9):
            h.observe(v)
        # counts: le=1 -> 1; le=2 -> 1; le=4 -> 2 (3 and 4); overflow -> 1.
        assert h.counts == [1, 1, 2, 0, 1]
        assert h.count == 5
        assert h.total == 19

    def test_boundary_values_land_in_their_bucket(self):
        h = Histogram(boundaries=(4,))
        h.observe(4)
        assert h.counts == [1, 0]

    def test_unsorted_boundaries_rejected(self):
        with pytest.raises(ValueError):
            Histogram(boundaries=(4, 2))
        with pytest.raises(ValueError):
            Histogram(boundaries=())

    def test_default_buckets_are_powers_of_two(self):
        assert DEFAULT_BUCKETS[0] == 1
        assert all(b * 2 == nxt for b, nxt in zip(DEFAULT_BUCKETS, DEFAULT_BUCKETS[1:]))

    def test_registry_observe_conflicting_buckets(self):
        r = MetricsRegistry()
        r.observe("repro_test_sizes", 3, buckets=(1, 2, 4))
        r.observe("repro_test_sizes", 4)  # default sentinel: no conflict check
        with pytest.raises(ValueError, match="other boundaries"):
            r.observe("repro_test_sizes", 5, buckets=(1, 2, 8))

    def test_weighted_observe(self):
        r = MetricsRegistry()
        r.observe("repro_test_sizes", 2, n=3)
        assert r.histogram("repro_test_sizes").count == 3


class TestGlobalGuard:
    def test_off_by_default(self):
        assert RUN.metrics is None

    def test_collecting_installs_and_restores(self):
        with collecting() as r:
            assert RUN.metrics is r
            RUN.metrics.inc("repro_test_calls_total")
        assert RUN.metrics is None
        assert r.counter("repro_test_calls_total") == 1

    def test_restores_on_exception(self):
        with pytest.raises(KeyError):
            with collecting():
                raise KeyError("boom")
        assert RUN.metrics is None


class TestRendering:
    def make(self):
        r = MetricsRegistry()
        r.inc("repro_test_calls_total", 3)
        r.set_gauge("repro_test_bytes", 128)
        r.observe("repro_test_sizes", 3, buckets=(2, 4))
        return r

    def test_snapshot_shape(self):
        snap = self.make().snapshot()
        assert snap["counters"] == {"repro_test_calls_total": 3}
        assert snap["gauges"] == {"repro_test_bytes": 128}
        hist = snap["histograms"]["repro_test_sizes"]
        assert hist == {"boundaries": [2, 4], "counts": [0, 1, 0],
                        "count": 1, "sum": 3}

    def test_json_round_trip(self):
        snap = json.loads(self.make().to_json())
        assert snap == self.make().snapshot()

    def test_render_text(self):
        text = self.make().render_text()
        assert "repro_test_calls_total 3" in text
        assert "repro_test_bytes 128" in text
        assert "count=1 sum=3" in text
        assert "{le=4} 1" in text

    def test_render_empty(self):
        assert "no metrics" in MetricsRegistry().render_text()
