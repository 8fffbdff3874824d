"""Bandwidth-model tests: windowing, peaks, caps."""

import pytest

from repro.perf.bandwidth import (
    CYCLES_PER_TICK,
    DEFAULT_WINDOW_TICKS,
    bandwidth_profile,
)
from repro.perf.cache import CacheSim, LLCModel
from repro.perf.cpu import I5_11400, I9_13900K


class TestBasics:
    def test_no_traffic(self):
        p = bandwidth_profile({}, 1000, I9_13900K)
        assert p.max_gbps == 0.0
        assert p.n_windows == 0

    def test_zero_clock(self):
        p = bandwidth_profile({0: 64}, 0, I9_13900K)
        assert p.max_gbps == 0.0

    def test_single_burst_rate(self):
        # 64 KiB in one window of 2048 ticks.
        p = bandwidth_profile({0: 65536}, 10_000, I9_13900K)
        window_sec = DEFAULT_WINDOW_TICKS * CYCLES_PER_TICK / (I9_13900K.freq_ghz * 1e9)
        assert p.max_gbps == pytest.approx(65536 / window_sec / 1e9)

    def test_peak_is_max_over_windows(self):
        p = bandwidth_profile({0: 1000, 48: 5000, 97: 2000}, 300_000, I9_13900K)
        lone = bandwidth_profile({0: 5000}, 300_000, I9_13900K)
        assert p.max_gbps == pytest.approx(lone.max_gbps)
        assert p.n_windows == 3

    def test_same_window_accumulates(self):
        def bins(events):
            cache = CacheSim(64 * 64, 4)
            model = LLCModel([cache])
            for event in events:
                model.append(event)
            return cache.bins

        one = bandwidth_profile(bins([("L", 0, 8, 0)]), 10_000, I9_13900K)
        two = bandwidth_profile(bins([("L", 0, 8, 0), ("L", 64, 8, 10)]),
                                10_000, I9_13900K)
        assert two.max_gbps == pytest.approx(2 * one.max_gbps)


class TestCap:
    def test_capped_at_channel_bandwidth(self):
        # An absurd burst cannot exceed the machine's physical limit.
        p = bandwidth_profile({0: 1 << 32}, 1000, I5_11400)
        assert p.max_gbps == pytest.approx(I5_11400.mem_bw_gbps)
        assert p.saturated

    def test_not_saturated_below_cap(self):
        p = bandwidth_profile({0: 1000}, 100_000, I9_13900K)
        assert not p.saturated

    def test_mean_below_max(self):
        bins = {i * 50_000 // DEFAULT_WINDOW_TICKS: 5000 for i in range(10)}
        p = bandwidth_profile(bins, 500_000, I9_13900K)
        assert p.mean_gbps <= p.max_gbps
