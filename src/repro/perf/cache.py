"""Set-associative LLC model fed the traced address stream as it happens.

This stands in for ``perf``'s LLC miss counters (the paper's Table II).
:class:`LLCModel` is what a profiled stage's :class:`~repro.perf.trace.
Tracer` appends its memory events to (single accesses and sequential
bursts, each counted once): it decodes each event once and drives one LRU
set-associative :class:`CacheSim` per CPU of Table I, configured from its
:class:`~repro.perf.cpu.MachineSpec`'s LLC geometry.  Each cache bins its
DRAM bytes by bandwidth window as the misses happen, so nothing holds the
stream.

Because the harness runs scaled-down circuit sizes, the simulated LLC is
shrunk by ``DEFAULT_CAPACITY_SCALE`` (an established trace-driven-
simulation practice: shrink the cache with the working set so capacity
behaviour is preserved).  MPKI is reported against the cost-model-expanded
instruction count, exactly as the paper computes it
(``LLC load misses / (instructions / 1000)``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.perf.bandwidth import DEFAULT_WINDOW_TICKS
from repro.perf.cpu import ALL_CPUS

__all__ = ["CacheSim", "CacheStats", "LLCModel", "DEFAULT_CAPACITY_SCALE"]

#: Shrink factor applied to the physical LLC so that the harness's
#: scaled-down workloads exercise capacity behaviour (see module docstring).
DEFAULT_CAPACITY_SCALE = 64


@dataclass
class CacheStats:
    """Counters accumulated by one simulation run.

    ``random_load_misses`` counts misses from *single* (pointer-chase style)
    accesses only; burst misses are sequential and prefetchable, so the
    top-down model charges them to bandwidth rather than exposed latency.
    """

    load_accesses: float = 0.0
    load_misses: float = 0.0
    store_accesses: float = 0.0
    store_misses: float = 0.0
    writebacks: float = 0.0
    random_load_misses: float = 0.0

    @property
    def accesses(self):
        return self.load_accesses + self.store_accesses

    @property
    def misses(self):
        return self.load_misses + self.store_misses

    def load_mpki(self, instructions):
        """LLC load misses per kilo-instruction (the paper's Table II metric)."""
        if instructions <= 0:
            return 0.0
        return self.load_misses / (instructions / 1000.0)

    def traffic_bytes(self, line_bytes):
        """DRAM traffic generated: miss fills plus dirty writebacks."""
        return (self.misses + self.writebacks) * line_bytes


class CacheSim:
    """An LRU set-associative cache and its miss bytes per bandwidth window.

    ``size_bytes`` is rounded down to a power-of-two number of sets.  Each
    set is one dict ``line -> dirty`` whose insertion order is the recency
    order: a hit moves the line to the end, a miss in a full set evicts the
    first.  ``bins`` maps ``clock // DEFAULT_WINDOW_TICKS`` to the miss-fill
    bytes of that window (what :func:`~repro.perf.bandwidth.
    bandwidth_profile` reads).
    """

    def __init__(self, size_bytes, assoc, line_bytes=64):
        if size_bytes < assoc * line_bytes:
            size_bytes = assoc * line_bytes
        self.line_bytes = line_bytes
        self.assoc = assoc
        n_sets = max(1, size_bytes // (assoc * line_bytes))
        # Round down to a power of two for cheap indexing.
        while n_sets & (n_sets - 1):
            n_sets &= n_sets - 1
        self.n_sets = n_sets
        self._sets = [dict() for _ in range(n_sets)]
        self.stats = CacheStats()
        self.bins = {}

    @classmethod
    def scaled(cls, spec):
        """*spec*'s LLC shrunk by ``DEFAULT_CAPACITY_SCALE``."""
        return cls(spec.llc_kib * 1024 // DEFAULT_CAPACITY_SCALE,
                   spec.llc_assoc, spec.line_bytes)

    def access(self, addr, size, is_write, burst=False, window=0):
        """Touch every line of ``[addr, addr+size)`` once; returns the
        number of line misses.  A single access (``burst=False``) that
        loads counts its misses as random load misses; *window* is the
        bandwidth window the miss bytes land in."""
        lb = self.line_bytes
        first = addr // lb
        n_lines = (addr + size - 1) // lb - first + 1 if size > 1 else 1
        sets, mask, assoc = self._sets, self.n_sets - 1, self.assoc
        misses = writebacks = 0
        for line in range(first, first + n_lines):
            ways = sets[line & mask]
            dirty = ways.pop(line, None)
            if dirty is None:
                misses += 1
                if len(ways) >= assoc and ways.pop(next(iter(ways))):
                    writebacks += 1
                dirty = False
            ways[line] = dirty or is_write
        st = self.stats
        if is_write:
            st.store_accesses += n_lines
            st.store_misses += misses
        else:
            st.load_accesses += n_lines
            st.load_misses += misses
            if not burst:
                st.random_load_misses += misses
        if misses:
            st.writebacks += writebacks
            self.bins[window] = self.bins.get(window, 0) + misses * lb
        return misses


class LLCModel:
    """The scaled LLC of every CPU in ``ALL_CPUS``, fed one memory event at
    a time through :meth:`append` — the call a :class:`~repro.perf.trace.
    Tracer` makes on its memory-event target.  ``caches[i]`` is
    ``ALL_CPUS[i]``'s :class:`CacheSim`, unless a test passes its own
    *caches*."""

    def __init__(self, caches=None):
        self.caches = caches or [CacheSim.scaled(spec) for spec in ALL_CPUS]

    def append(self, event):
        """Run one ``(kind, addr, size, clock)`` event (the tuples
        documented in :mod:`repro.perf.trace`) through every cache."""
        kind, addr, size, clock = event
        is_write = kind[0] == "S"
        burst = len(kind) == 2
        window = clock // DEFAULT_WINDOW_TICKS
        for cache in self.caches:
            cache.access(addr, size, is_write, burst, window)
