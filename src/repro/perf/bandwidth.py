"""DRAM bandwidth-utilization model (the paper's Table III).

VTune reports maximum memory bandwidth by sampling DRAM traffic over time
windows.  The equivalent here: the cache simulator yields a timeline of
``(instruction_clock, dram_bytes)`` miss/writeback samples; this module bins
the timeline into fixed windows of the instruction clock, converts window
width to seconds through the machine's frequency and a nominal IPC, and
reports the peak (capped at the machine's physical channel bandwidth, since
a real machine cannot exceed it — the cap is what makes the proving stage
*saturate* the memory system rather than report impossible numbers).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["BandwidthProfile", "bandwidth_profile"]

#: Window width in tracer-clock ticks (primitives).  Primitives average a
#: few instructions each, so this is a few hundred microseconds of simulated
#: time — comparable to VTune's sampling granularity.
DEFAULT_WINDOW_TICKS = 1 << 11

#: Average core cycles per tracer clock tick.  A tick is one reported
#: primitive; across the instrumented stages primitives average ~20
#: instructions at ~2 IPC, i.e. ~10 cycles.  A fixed constant keeps the
#: tick->time conversion uniform across stages (a tick during a streaming
#: phase costs the same wall time as a tick during compute), which is what
#: VTune's wall-clock sampling windows see.
CYCLES_PER_TICK = 10.0


@dataclass
class BandwidthProfile:
    """Result of the windowed traffic analysis."""

    max_gbps: float
    mean_gbps: float
    total_bytes: float
    n_windows: int
    saturated: bool  # True when the peak hit the physical channel limit


def bandwidth_profile(timeline, total_clock, spec,
                      window_ticks=DEFAULT_WINDOW_TICKS):
    """Compute the bandwidth profile of a miss-traffic *timeline*.

    Parameters
    ----------
    timeline:
        ``[(clock, dram_bytes), ...]`` from
        :func:`repro.perf.cache.simulate_llc` (any order).
    total_clock:
        The tracer's final instruction clock (defines the run's duration).
    spec:
        The :class:`~repro.perf.cpu.MachineSpec` (frequency and channel cap).
    window_ticks:
        Bin width in clock ticks.
    """
    if total_clock <= 0 or not timeline:
        return BandwidthProfile(0.0, 0.0, 0.0, 0, False)
    bins = {}
    total = 0.0
    for clock, nbytes in timeline:
        bins[clock // window_ticks] = bins.get(clock // window_ticks, 0.0) + nbytes
        total += nbytes
    window_seconds = window_ticks * CYCLES_PER_TICK / (spec.freq_ghz * 1e9)
    peak_bytes = max(bins.values())
    raw_max = peak_bytes / window_seconds / 1e9
    cap = spec.mem_bw_gbps
    max_gbps = min(raw_max, cap)
    duration = max(total_clock, 1) * CYCLES_PER_TICK / (spec.freq_ghz * 1e9)
    mean_gbps = min(total / duration / 1e9, cap)
    return BandwidthProfile(
        max_gbps=max_gbps,
        mean_gbps=mean_gbps,
        total_bytes=total,
        n_windows=len(bins),
        saturated=raw_max >= cap,
    )
