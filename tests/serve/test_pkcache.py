"""Proving-key cache: LRU bound, eviction, hit/miss counters, and the
differential guarantee that cached and freshly built keys yield
byte-identical proofs (setup is seeded from the cell key, so the cache
is a pure memo — correctness never depends on it)."""

import asyncio
import random

import pytest

from repro.obs import metrics
from repro.serve import ARTIFACT_CACHE, PKCache
from tests.serve.conftest import fast_service


def started(svc):
    """Start and immediately drain *svc* — artifacts stay built."""
    async def main():
        await svc.start()
        await svc.drain()
        return svc

    return asyncio.run(main())


def proof_bytes(svc, tag):
    from repro.groth16 import prove
    from repro.groth16.serialize import proof_to_bytes

    return proof_to_bytes(prove(svc._pk, svc._circuit, svc._witness,
                                random.Random(tag)))


class TestPKCache:
    def test_build_runs_only_on_miss(self):
        calls = []
        cache = PKCache()
        assert cache.get("k", lambda: calls.append(1) or "art") == "art"
        assert cache.get("k", lambda: calls.append(1) or "other") == "art"
        assert calls == [1]
        assert "k" in cache and len(cache) == 1

    def test_lru_eviction_bound(self):
        cache = PKCache(max_entries=2)
        built = []

        def make(k):
            return lambda: built.append(k) or k

        cache.get("a", make("a"))
        cache.get("b", make("b"))
        cache.get("a", make("a-again"))  # hit: refreshes a's LRU position
        cache.get("c", make("c"))        # evicts b, the least recently used
        assert built == ["a", "b", "c"]
        assert cache.keys() == ["a", "c"]
        assert "b" not in cache
        assert len(cache) == 2

    def test_counters(self):
        registry = metrics.MetricsRegistry()
        with metrics.collecting(registry):
            cache = PKCache(max_entries=1)
            cache.get("x", lambda: 1)
            cache.get("x", lambda: 1)
            cache.get("y", lambda: 2)  # evicts x
        counters = registry.snapshot()["counters"]
        assert counters["repro_serve_pk_cache_misses_total"] == 2
        assert counters["repro_serve_pk_cache_hits_total"] == 1
        assert counters["repro_serve_pk_cache_evictions_total"] == 1

    def test_bound_validated(self):
        with pytest.raises(ValueError):
            PKCache(max_entries=0)

    def test_clear(self):
        cache = PKCache()
        cache.get("k", lambda: 1)
        cache.clear()
        assert len(cache) == 0 and cache.keys() == []


class TestServiceIntegration:
    def test_second_service_of_the_same_cell_hits_the_cache(self):
        ARTIFACT_CACHE.clear()
        registry = metrics.MetricsRegistry()
        with metrics.collecting(registry):
            started(fast_service(seed=11))
            started(fast_service(seed=11))
        counters = registry.snapshot()["counters"]
        assert counters["repro_serve_pk_cache_misses_total"] == 1
        assert counters["repro_serve_pk_cache_hits_total"] == 1

    def test_start_prepares_the_verifying_key_once_per_cell(self):
        # Cold start pays for the vk's line tables and stored Miller value;
        # a cache hit hands the second instance the same prepared object,
        # and the first verify request finds it there.
        ARTIFACT_CACHE.clear()
        cold = fast_service(seed=11)
        assert cold._vk is None
        started(cold)
        assert "prepared" in vars(cold._vk)
        memo = cold._vk.prepared
        warm = started(fast_service(seed=11))
        assert warm._vk is cold._vk and warm._vk.prepared is memo

        async def main():
            async with fast_service(seed=11) as svc:
                assert svc._vk.prepared is memo
                return await svc.submit("verify")

        result = asyncio.run(main())
        assert result.status == "ok" and result.accepted is True
        assert result.resolved_typed
        assert abs(result.phase_sum - result.total_s) < 1e-3
        assert cold._vk.prepared is memo

    def test_distinct_cells_do_not_collide(self):
        ARTIFACT_CACHE.clear()
        a = started(fast_service(seed=11))
        b = started(fast_service(seed=12))
        assert a._pk is not b._pk
        assert len(ARTIFACT_CACHE) == 2

    def test_cached_and_fresh_keys_give_byte_identical_proofs(self):
        # Fresh build, then a cache hit of the same cell, then a fresh
        # rebuild after eviction: all three key sets must prove to the
        # exact same bytes for the same prover randomness.
        ARTIFACT_CACHE.clear()
        fresh = started(fast_service(seed=11))
        cached = started(fast_service(seed=11))
        assert cached._pk is fresh._pk  # it really was the cached entry
        ARTIFACT_CACHE.clear()
        rebuilt = started(fast_service(seed=11))
        assert rebuilt._pk is not fresh._pk  # it really was rebuilt
        reference = proof_bytes(fresh, "differential")
        assert proof_bytes(cached, "differential") == reference
        assert proof_bytes(rebuilt, "differential") == reference
