"""Top-down model tests: fractions, classification logic, machine contrasts."""

from collections import Counter

import pytest

from repro.perf.cache import CacheStats
from repro.perf.costmodel import aggregate
from repro.perf.cpu import ALL_CPUS, I5_11400, I7_8650U, I9_13900K
from repro.perf.topdown import TopDownResult, topdown_analysis


def summary_of(counts):
    return aggregate(Counter(counts))


def clean_cache():
    return CacheStats()


class TestFractions:
    def test_fractions_sum_to_one(self):
        s = summary_of({"bigint_mul_4": 10_000, "malloc": 50})
        for spec in ALL_CPUS:
            td = topdown_analysis(s, clean_cache(), spec)
            total = td.frontend + td.bad_speculation + td.backend + td.retiring
            assert total == pytest.approx(1.0)

    def test_all_fractions_nonnegative(self):
        s = summary_of({"wasm_dispatch": 10_000})
        for spec in ALL_CPUS:
            td = topdown_analysis(s, clean_cache(), spec)
            for v in td.as_dict().values():
                assert v >= 0

    def test_detail_components_present(self):
        s = summary_of({"bigint_mul_4": 1000})
        td = topdown_analysis(s, clean_cache(), I9_13900K)
        for key in ("retire_cycles", "frontend_cycles", "bad_speculation_cycles",
                    "backend_core_cycles", "backend_memory_cycles"):
            assert key in td.detail


class TestClassification:
    def test_classification_picks_max(self):
        td = TopDownResult(frontend=0.4, bad_speculation=0.1, backend=0.3,
                           retiring=0.2, cycles=1, detail={})
        assert td.classification == "frontend"

    def test_classification_includes_retiring(self):
        td = TopDownResult(frontend=0.1, bad_speculation=0.05, backend=0.15,
                           retiring=0.7, cycles=1, detail={})
        assert td.classification == "retiring"


class TestModelBehaviour:
    def test_big_footprint_stresses_frontend(self):
        small = summary_of({"bigint_mul_4": 100_000})
        big = summary_of({"wasm_dispatch": 100_000})  # huge handler footprint
        for spec in ALL_CPUS:
            td_small = topdown_analysis(small, clean_cache(), spec)
            td_big = topdown_analysis(big, clean_cache(), spec)
            assert td_big.frontend > td_small.frontend

    def test_random_misses_stress_backend(self):
        s = summary_of({"graph_walk": 100_000})
        with_misses = CacheStats(load_misses=5000, random_load_misses=5000)
        td_clean = topdown_analysis(s, clean_cache(), I9_13900K)
        td_missy = topdown_analysis(s, with_misses, I9_13900K)
        assert td_missy.backend > td_clean.backend

    def test_streamed_misses_cheaper_than_random(self):
        s = summary_of({"graph_walk": 100_000})
        streamed = CacheStats(load_misses=5000, random_load_misses=0)
        random_ = CacheStats(load_misses=5000, random_load_misses=5000)
        td_s = topdown_analysis(s, streamed, I9_13900K)
        td_r = topdown_analysis(s, random_, I9_13900K)
        assert td_r.backend >= td_s.backend

    def test_mispredictions_stress_bad_speculation(self):
        low = summary_of({"bigint_add_4": 100_000})
        high = summary_of({"wasm_dispatch": 100_000})
        td_low = topdown_analysis(low, clean_cache(), I5_11400)
        td_high = topdown_analysis(high, clean_cache(), I5_11400)
        assert td_high.bad_speculation > td_low.bad_speculation

    def test_wider_machine_hides_more_latency(self):
        # The same bigint-chain stream is more backend-bound on the i9
        # (relative to its width) than frontend-bound; on the small-frontend
        # i7 the footprint spill dominates.  This is Key Takeaway 1.
        s = summary_of({
            "bigint_mul_4": 1_000_000, "bigint_add_4": 1_500_000,
            "ec_add_g1_bn": 90_000, "ec_dbl_g1_bn": 90_000,
            "msm_digit": 200_000, "memcpy_chunk": 100_000,
            "hash_block": 5_000, "malloc": 2_000,
        })
        td7 = topdown_analysis(s, clean_cache(), I7_8650U)
        td9 = topdown_analysis(s, clean_cache(), I9_13900K)
        assert td7.frontend > td9.frontend
        assert td9.classification == "backend"

    def test_random_misses_amplify_memory(self):
        s = summary_of({"graph_walk": 100_000})
        few = CacheStats(load_misses=1000, random_load_misses=1000)
        many = CacheStats(load_misses=8000, random_load_misses=8000)
        td1 = topdown_analysis(s, few, I9_13900K)
        td8 = topdown_analysis(s, many, I9_13900K)
        assert td8.backend > td1.backend
