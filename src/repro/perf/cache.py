"""Set-associative cache simulation over the traced address stream.

This stands in for ``perf``'s LLC miss counters (the paper's Table II).  The
simulator replays the tracer's memory events — single accesses and
sequential bursts, each counted once — through an LRU set-associative
cache configured from a :class:`~repro.perf.cpu.MachineSpec`'s LLC geometry.

Because the harness runs scaled-down circuit sizes, the simulated LLC is
shrunk by the same ``capacity_scale`` factor (an established trace-driven-
simulation practice: shrink the cache with the working set so capacity
behaviour is preserved).  MPKI is reported against the cost-model-expanded
instruction count, exactly as the paper computes it
(``LLC load misses / (instructions / 1000)``).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["CacheSim", "CacheStats", "simulate_llc", "DEFAULT_CAPACITY_SCALE"]

#: Default shrink factor applied to the physical LLC so that the harness's
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
    """An LRU set-associative cache.

    Parameters
    ----------
    size_bytes / assoc / line_bytes:
        Geometry.  ``size_bytes`` is rounded down to a whole number of sets.

    The per-set LRU state is a plain list ordered oldest-first; associativity
    is small (12-16) so list operations beat fancier structures in CPython.
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
        self._sets = [dict() for _ in range(n_sets)]  # line -> dirty flag
        self._tick = 0
        self._lru = [dict() for _ in range(n_sets)]   # line -> last-use tick
        self.stats = CacheStats()

    def access(self, addr, size, is_write):
        """A single (random) access to ``[addr, addr+size)``; returns the
        number of line misses."""
        lb = self.line_bytes
        first = addr // lb
        last = (addr + max(size, 1) - 1) // lb
        misses = 0
        for line in range(first, last + 1):
            misses += self._touch(line, is_write)
        if misses and not is_write:
            self.stats.random_load_misses += misses
        return misses

    def _touch(self, line, is_write):
        st = self.stats
        idx = line & (self.n_sets - 1)
        ways = self._sets[idx]
        lru = self._lru[idx]
        self._tick += 1
        if is_write:
            st.store_accesses += 1
        else:
            st.load_accesses += 1
        if line in ways:
            lru[line] = self._tick
            if is_write:
                ways[line] = True
            return 0
        # Miss: fill, evicting LRU if needed.
        if is_write:
            st.store_misses += 1
        else:
            st.load_misses += 1
        if len(ways) >= self.assoc:
            victim = min(lru, key=lru.get)
            if ways.pop(victim):
                st.writebacks += 1
            del lru[victim]
        ways[line] = is_write
        lru[line] = self._tick
        return 1

    def replay(self, events, on_miss=None):
        """Replay a tracer's memory-event list.

        *events* are the tuples documented in :mod:`repro.perf.trace`.
        ``on_miss(clock, bytes)`` is invoked per event with the DRAM bytes it
        generated (used by the bandwidth model to build a traffic timeline).
        """
        lb = self.line_bytes
        for ev in events:
            kind, a, b, clock = ev
            if kind == "L":
                misses = self.access(a, b, False)
            elif kind == "S":
                misses = self.access(a, b, True)
            elif kind == "LB":
                misses = self._burst(a, b, False)
            elif kind == "SB":
                misses = self._burst(a, b, True)
            else:  # pragma: no cover - event kinds are fixed by the tracer
                raise ValueError(f"unknown memory event kind {kind!r}")
            if on_miss is not None and misses:
                on_miss(clock, misses * lb)
        return self.stats

    def _burst(self, base, nbytes, is_write):
        """Sequential sweep: one access per cache line."""
        lb = self.line_bytes
        first = base // lb
        last = (base + nbytes - 1) // lb
        misses = 0
        for line in range(first, last + 1):
            misses += self._touch(line, is_write)
        return misses


def simulate_llc(tracer, spec, capacity_scale=DEFAULT_CAPACITY_SCALE):
    """Replay *tracer*'s memory events through *spec*'s (scaled) LLC.

    Returns ``(CacheStats, traffic_timeline)`` where the timeline is a list
    of ``(clock, dram_bytes)`` samples for the bandwidth model.
    """
    size = max(spec.llc_kib * 1024 // capacity_scale, spec.llc_assoc * spec.line_bytes)
    sim = CacheSim(size, spec.llc_assoc, spec.line_bytes)
    timeline = []
    sim.replay(tracer.mem_events, on_miss=lambda clock, b: timeline.append((clock, b)))
    return sim.stats, timeline
