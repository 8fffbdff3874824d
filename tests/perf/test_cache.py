"""Cache-model tests: hit/miss/eviction behaviour, invariants, and equality
with the tick-LRU oracle that replays a stored stream."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.perf.bandwidth import DEFAULT_WINDOW_TICKS
from repro.perf.cache import CacheSim, CacheStats, LLCModel
from repro.perf.cpu import ALL_CPUS
from repro.perf.trace import Tracer
from tests.oracle import tick_llc


def small_cache(lines=8, assoc=2):
    return CacheSim(size_bytes=lines * 64, assoc=assoc, line_bytes=64)


def feed(cache, events):
    """A model of the one *cache*, fed *events*."""
    model = LLCModel([cache])
    for event in events:
        model.append(event)
    return cache


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
        c.access(0, 8, False)                    # random load miss
        c.access(4096, 128, False, burst=True)   # burst misses are not "random"
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

    def test_a_load_hit_keeps_the_line_dirty(self):
        c = CacheSim(size_bytes=2 * 64, assoc=2)
        c.access(0, 8, True)           # dirty
        c.access(0, 8, False)          # a load hit: still dirty, now MRU
        c.access(64, 8, False)
        c.access(128, 8, False)        # evicts line 1, clean
        c.access(192, 8, False)        # evicts line 0, dirty
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


class TestModel:
    def test_event_kinds(self):
        c = feed(small_cache(lines=64, assoc=4), [
            ("L", 0, 8, 0),
            ("S", 64, 8, 1),
            ("LB", 4096, 256, 2),
            ("SB", 8192, 256, 3),
        ])
        assert c.stats.load_misses == 1 + 4
        assert c.stats.store_misses == 1 + 4
        assert c.stats.random_load_misses == 1

    def test_miss_bytes_binned_by_window(self):
        c = feed(small_cache(lines=64, assoc=4),
                 [("LB", 0, 256, 42), ("L", 4096, 8, 2 * DEFAULT_WINDOW_TICKS)])
        assert c.bins == {0: 256, 2: 64}

    def test_hits_add_no_bytes(self):
        c = feed(small_cache(lines=64, assoc=4),
                 [("L", 0, 8, 0), ("L", 0, 8, DEFAULT_WINDOW_TICKS)])
        assert c.bins == {0: 64}

    def test_default_caches_are_the_scaled_cpus(self):
        # Each LLC shrunk 64x, its sets rounded down to a power of two (the
        # i9's 768 to 512).
        caches = LLCModel().caches
        assert {spec.name: (c.n_sets, c.assoc) for spec, c in zip(ALL_CPUS, caches)} \
            == {"i7-8650U": (128, 16), "i5-11400": (256, 12), "i9-13900K": (512, 12)}


class TestStats:
    def test_mpki(self):
        s = CacheStats(load_misses=50)
        assert s.load_mpki(100_000) == pytest.approx(0.5)
        assert s.load_mpki(0) == 0.0

    def test_traffic(self):
        s = CacheStats(load_misses=2, store_misses=1, writebacks=1)
        assert s.traffic_bytes(64) == 4 * 64


def traced(*blocks):
    """The CPUs' caches after a tracer fed the model *blocks* loads."""
    tr = Tracer(mem_events=LLCModel())
    for base, nbytes in blocks:
        tr.mem_block(base, nbytes)
    return {spec.name: c for spec, c in zip(ALL_CPUS, tr.mem_events.caches)}


class TestScaledCpus:
    def test_capacity_scaling(self):
        # Stream 256 KiB twice: the i7's 128 KiB scaled LLC misses on the
        # second pass too; the i9's 384 KiB one keeps it all.
        caches = traced((0, 256 << 10), (0, 256 << 10))
        lines = (256 << 10) // 64
        assert caches["i7-8650U"].stats.load_misses == 2 * lines
        assert caches["i9-13900K"].stats.load_misses == lines

    def test_bins_total_matches_traffic(self):
        for c in traced((0, 4096)).values():
            assert sum(c.bins.values()) == c.stats.misses * 64


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


#: A tiny geometry: ``(size_bytes, assoc)`` of 1-4 sets and 1-4 ways.
geometries = st.tuples(st.integers(1, 4), st.integers(1, 4)).map(
    lambda g: (g[0] * g[1] * 64, g[1]))

#: One event: ``(kind, addr, size, clock step)``.  Addresses span 32 lines,
#: more than the largest geometry holds, so sets collide and evict.
steps = st.tuples(st.sampled_from(["L", "S", "LB", "SB"]),
                  st.integers(0, 32 * 64 - 1), st.integers(1, 300),
                  st.integers(0, DEFAULT_WINDOW_TICKS))


@given(geoms=st.lists(geometries, min_size=1, max_size=3),
       drawn=st.lists(steps, max_size=120))
@settings(max_examples=200, deadline=None)
def test_model_equals_the_tick_lru(geoms, drawn):
    events, clock = [], 0
    for kind, addr, size, step in drawn:
        clock += step
        events.append((kind, addr, size, clock))
    caches = [CacheSim(size, assoc) for size, assoc in geoms]
    model = LLCModel(caches)
    for event in events:
        model.append(event)
    for (size, assoc), cache in zip(geoms, caches):
        stats, bins = tick_llc(events, size, assoc)
        assert cache.stats == stats
        assert cache.bins == bins


def test_model_equals_the_tick_lru_on_each_cpu():
    from repro.curves import BN128
    from repro.harness.circuits import build_exponentiate
    from repro.workflow import Workflow

    wf = Workflow(BN128, *build_exponentiate(BN128, 16), seed=0)
    for stage in ("compile", "setup", "witness"):
        wf.run_stage(stage)
    events = wf.run_stage("proving", Tracer()).tracer.mem_events
    model = LLCModel()
    for event in events:
        model.append(event)
    for spec, cache in zip(ALL_CPUS, model.caches):
        stats, bins = tick_llc(events, spec.llc_kib * 1024 // 64, spec.llc_assoc)
        assert cache.stats == stats
        assert cache.bins == bins
