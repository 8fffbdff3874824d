"""Cache-simulator tests: hit/miss/eviction behaviour and invariants."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.perf.cache import CacheSim, CacheStats, simulate_llc
from repro.perf.cpu import I7_8650U, I9_13900K
from repro.perf.trace import Tracer


def small_cache(lines=8, assoc=2):
    return CacheSim(size_bytes=lines * 64, assoc=assoc, line_bytes=64)


class TestBasics:
    def test_cold_miss_then_hit(self):
        c = small_cache()
        assert c.access(0, 8, False) == 1
        assert c.access(0, 8, False) == 0
        assert c.stats.load_accesses == 2
        assert c.stats.load_misses == 1

    def test_access_spanning_lines(self):
        c = small_cache()
        assert c.access(60, 8, False) == 2  # crosses a 64 B boundary

    def test_store_miss_counted_separately(self):
        c = small_cache()
        c.access(0, 8, True)
        assert c.stats.store_misses == 1
        assert c.stats.load_misses == 0

    def test_random_load_misses_tracked(self):
        c = small_cache()
        c.access(0, 8, False)        # random load miss
        c._burst(4096, 128, False)  # burst misses are not "random"
        assert c.stats.random_load_misses == 1
        assert c.stats.load_misses == 3

    def test_geometry_rounded(self):
        c = CacheSim(size_bytes=100 * 64, assoc=4)
        assert c.n_sets & (c.n_sets - 1) == 0

    def test_tiny_size_clamped_to_assoc(self):
        c = CacheSim(size_bytes=64, assoc=4)
        assert c.n_sets >= 1


class TestEviction:
    def test_lru_eviction(self):
        # Direct-ish mapping: 1 set, assoc 2.
        c = CacheSim(size_bytes=2 * 64, assoc=2)
        c.access(0 * 64, 8, False)
        c.access(1 * 64, 8, False)
        c.access(0 * 64, 8, False)     # touch line 0 -> line 1 is LRU
        c.access(2 * 64, 8, False)     # evicts line 1
        assert c.access(0 * 64, 8, False) == 0   # still resident
        assert c.access(1 * 64, 8, False) == 1   # was evicted

    def test_dirty_eviction_writes_back(self):
        c = CacheSim(size_bytes=2 * 64, assoc=2)
        c.access(0, 8, True)           # dirty
        c.access(64, 8, False)
        c.access(128, 8, False)        # evicts the dirty line
        assert c.stats.writebacks == 1

    def test_clean_eviction_no_writeback(self):
        c = CacheSim(size_bytes=2 * 64, assoc=2)
        c.access(0, 8, False)
        c.access(64, 8, False)
        c.access(128, 8, False)
        assert c.stats.writebacks == 0

    def test_working_set_fits_no_capacity_misses(self):
        c = small_cache(lines=16, assoc=16)
        for rep in range(3):
            for line in range(8):
                c.access(line * 64, 8, False)
        assert c.stats.load_misses == 8  # cold only

    def test_streaming_larger_than_cache_always_misses(self):
        c = small_cache(lines=4, assoc=4)
        for rep in range(2):
            for line in range(16):
                c.access(line * 64, 8, False)
        assert c.stats.load_misses == 32


class TestReplay:
    def test_event_kinds(self):
        c = small_cache(lines=64, assoc=4)
        events = [
            ("L", 0, 8, 0),
            ("S", 64, 8, 1),
            ("LB", 4096, 256, 2),
            ("SB", 8192, 256, 3),
        ]
        stats = c.replay(events)
        assert stats.load_misses == 1 + 4
        assert stats.store_misses == 1 + 4

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError):
            small_cache().replay([("X", 0, 8, 0)])

    def test_on_miss_timeline(self):
        c = small_cache(lines=64, assoc=4)
        seen = []
        c.replay([("LB", 0, 256, 42)], on_miss=lambda clk, b: seen.append((clk, b)))
        assert seen == [(42, 256)]

    def test_on_miss_skipped_for_hits(self):
        c = small_cache(lines=64, assoc=4)
        seen = []
        events = [("L", 0, 8, 0), ("L", 0, 8, 1)]
        c.replay(events, on_miss=lambda clk, b: seen.append(clk))
        assert seen == [0]


class TestStats:
    def test_mpki(self):
        s = CacheStats(load_misses=50)
        assert s.load_mpki(100_000) == pytest.approx(0.5)
        assert s.load_mpki(0) == 0.0

    def test_traffic(self):
        s = CacheStats(load_misses=2, store_misses=1, writebacks=1)
        assert s.traffic_bytes(64) == 4 * 64


class TestSimulateLLC:
    def test_capacity_scaling(self):
        tr = Tracer()
        # Stream 1 MiB twice: with a small scaled cache the second pass
        # must also miss; with the full cache it hits.
        tr.mem_block(0, 1 << 20)
        tr.mem_block(0, 1 << 20)
        small_stats, _ = simulate_llc(tr, I7_8650U, capacity_scale=256)
        big_stats, _ = simulate_llc(tr, I9_13900K, capacity_scale=1)
        assert small_stats.load_misses > big_stats.load_misses

    def test_timeline_total_matches_traffic(self):
        tr = Tracer()
        tr.mem_block(0, 4096)
        stats, timeline = simulate_llc(tr, I9_13900K)
        assert sum(b for _, b in timeline) == stats.misses * 64


@given(
    addrs=st.lists(st.integers(min_value=0, max_value=1 << 14), min_size=1, max_size=200)
)
@settings(max_examples=30, deadline=None)
def test_invariants_property(addrs):
    c = small_cache(lines=8, assoc=2)
    for a in addrs:
        c.access(a, 8, a % 3 == 0)
    s = c.stats
    assert s.load_misses <= s.load_accesses
    assert s.store_misses <= s.store_accesses
    assert s.writebacks <= s.misses
    # Replaying the same sequence is deterministic.
    c2 = small_cache(lines=8, assoc=2)
    for a in addrs:
        c2.access(a, 8, a % 3 == 0)
    assert c2.stats == s
