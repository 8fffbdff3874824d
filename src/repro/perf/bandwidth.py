"""DRAM bandwidth-utilization model (the paper's Table III).

VTune reports maximum memory bandwidth by sampling DRAM traffic over time
windows.  The equivalent here: each simulated LLC (:mod:`repro.perf.cache`)
adds its miss-fill bytes to the window ``clock // DEFAULT_WINDOW_TICKS`` of
the instruction clock as the misses happen; this module converts window
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


def bandwidth_profile(bins, total_clock, spec):
    """Compute the bandwidth profile of per-window miss traffic.

    Parameters
    ----------
    bins:
        ``{window: dram_bytes}``, a :class:`~repro.perf.cache.CacheSim`'s
        ``bins`` (windows of ``DEFAULT_WINDOW_TICKS`` clock ticks).
    total_clock:
        The tracer's final instruction clock (defines the run's duration).
    spec:
        The :class:`~repro.perf.cpu.MachineSpec` (frequency and channel cap).
    """
    if total_clock <= 0 or not bins:
        return BandwidthProfile(0.0, 0.0, 0.0, 0, False)
    total = float(sum(bins.values()))
    window_seconds = DEFAULT_WINDOW_TICKS * CYCLES_PER_TICK / (spec.freq_ghz * 1e9)
    raw_max = max(bins.values()) / window_seconds / 1e9
    cap = spec.mem_bw_gbps
    duration = total_clock * CYCLES_PER_TICK / (spec.freq_ghz * 1e9)
    return BandwidthProfile(
        max_gbps=min(raw_max, cap),
        mean_gbps=min(total / duration / 1e9, cap),
        total_bytes=total,
        n_windows=len(bins),
        saturated=raw_max >= cap,
    )
