"""Bounded per-process proving-key cache for the serving layer.

``groth16.setup`` dominates a service's cold start (it is a full
multi-exponentiation sweep over the circuit), and before this module the
service's artifact memo was an unbounded plain dict keyed by one cell —
fine for a single-circuit service, pathological for mixed-circuit
traffic, where every distinct (curve, workload, size, seed) cell paid a
fresh setup per process *and* the memo never let anything go.

:class:`PKCache` is the replacement: an LRU-bounded map from cell key to
the full prepared artifact tuple (curve, circuit, pk, vk, witness,
publics, sample proof), with

- ``repro_serve_pk_cache_hits_total`` / ``repro_serve_pk_cache_misses_total``
  counters so a capacity run can see whether mixed traffic is
  setup-bound, and
- ``repro_serve_pk_cache_evictions_total`` plus a hard ``max_entries``
  bound so a long-lived process serving many cells cannot hold every
  proving key it ever built (proving keys are the largest artifacts in
  the system).

Correctness does not depend on the cache: setup is seeded from the cell
key, so a cached proving key and a freshly built one are byte-identical,
and proofs made with either are byte-identical too (pinned by
``tests/serve/test_pkcache.py``).
"""

from __future__ import annotations

from collections import OrderedDict

from repro.context import RUN

__all__ = ["DEFAULT_MAX_ENTRIES", "PKCache"]

#: Default cache bound: enough for a realistic mixed-traffic cell set,
#: small enough that an accidental size sweep cannot hoard proving keys.
DEFAULT_MAX_ENTRIES = 8


class PKCache:
    """LRU cache of prepared circuit-cell artifacts, bounded by entries."""

    def __init__(self, max_entries=DEFAULT_MAX_ENTRIES):
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self._entries = OrderedDict()

    def __len__(self):
        return len(self._entries)

    def __contains__(self, key):
        return key in self._entries

    def keys(self):
        """Cell keys in LRU order (oldest first)."""
        return list(self._entries)

    def get(self, key, build):
        """The artifacts for *key*, building (and caching) on miss.

        *build* is a zero-argument callable producing the artifact tuple;
        it runs only on a miss.  Hits refresh the entry's LRU position.
        Inserting beyond ``max_entries`` evicts the least recently used
        entry and bumps the eviction counter.
        """
        m = RUN.metrics
        art = self._entries.get(key)
        if art is not None:
            self._entries.move_to_end(key)
            if m is not None:
                m.inc("repro_serve_pk_cache_hits_total")
            return art
        if m is not None:
            m.inc("repro_serve_pk_cache_misses_total")
        art = build()
        self._entries[key] = art
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            if m is not None:
                m.inc("repro_serve_pk_cache_evictions_total")
        return art

    def clear(self):
        self._entries.clear()
