"""Worker-pool contract: chunking, the process pool, typed errors.

The pool's promises (docs/PARALLELISM.md):

* ``chunk_slices`` partitions ``range(n)`` contiguously into near-equal,
  never-empty slices;
* every map runs in forked worker processes, one worker included, and
  ``close()`` reaps them;
* exceptions never cross the process boundary as pickled tracebacks —
  taxonomy errors come back as their own class, ``ValueError`` /
  ``TypeError`` as themselves, anything else as ``WorkerCrash``.
"""

import os

import pytest

from repro.parallel.pool import (
    WorkerPool,
    active_pool,
    chunk_slices,
    decode_error,
    encode_error,
    using,
)
from repro.resilience.errors import (
    ArtifactCorruption,
    StageTimeout,
    TransientFault,
    WorkerCrash,
)


class TestChunkSlices:
    @pytest.mark.parametrize("n,parts", [
        (10, 3), (7, 7), (5, 8), (1, 4), (64, 4), (100, 16), (97, 4),
    ])
    def test_contiguous_near_equal_partition(self, n, parts):
        slices = chunk_slices(n, parts)
        assert slices[0][0] == 0 and slices[-1][1] == n
        for (_, stop), (start, _) in zip(slices, slices[1:]):
            assert stop == start
        assert all(stop > start for start, stop in slices)
        assert len(slices) == min(parts, n)
        widths = [stop - start for start, stop in slices]
        assert max(widths) - min(widths) <= 1

    def test_zero_items_yields_no_slices(self):
        assert chunk_slices(0, 4) == []

    def test_one_part(self):
        assert chunk_slices(12, 1) == [(0, 12)]


class TestConstruction:
    def test_many_workers_select_process_backend(self):
        # Lazy: nothing is forked until the first map.
        pool = WorkerPool(2)
        assert pool._pool is None
        pool.map("selftest_square", [{"x": 1}])
        assert pool._pool is not None
        pool.close()

    def test_invalid_workers(self):
        with pytest.raises(ValueError):
            WorkerPool(0)

    def test_enabled_for_respects_thresholds(self):
        with WorkerPool(2, min_msm=16, min_ntt=8) as pool:
            assert pool.enabled_for(16, "msm")
            assert not pool.enabled_for(15, "msm")
            assert pool.enabled_for(8, "ntt")
        with WorkerPool(1, min_msm=1) as pool:
            assert not pool.enabled_for(1 << 20, "msm")  # one worker: never

    @pytest.mark.parametrize("kind", ["nft", "witness", ""])
    def test_enabled_for_rejects_an_unknown_kind(self, kind):
        # A misspelt or retired kind must not fall through to threshold 1.
        with WorkerPool(2) as pool:
            with pytest.raises(ValueError, match="unknown fan-out kind"):
                pool.enabled_for(1, kind)

    @pytest.mark.parametrize("kind", ["msm", "ntt", "batch"])
    def test_each_kind_reads_its_own_threshold(self, kind):
        with WorkerPool(2, **{f"min_{kind}": 5}) as pool:
            assert pool.enabled_for(5, kind)
            assert not pool.enabled_for(4, kind)

    @pytest.mark.parametrize("kind", ["msm", "ntt", "batch"])
    def test_one_worker_never_fans_out(self, kind):
        with WorkerPool(1, min_msm=1, min_ntt=1, min_batch=1) as pool:
            assert not pool.enabled_for(1 << 20, kind)

    def test_default_ntt_threshold_is_the_two_core_crossover(self):
        # A pooled NTT loses to the serial one up to 2^11 on two cores.
        with WorkerPool(2) as pool:
            assert not pool.enabled_for(1 << 11, "ntt")
            assert pool.enabled_for(1 << 12, "ntt")

    def test_worker_count_is_required(self):
        # The count is the one way to size a pool: no environment default.
        with pytest.raises(TypeError):
            WorkerPool()

    def test_worker_count_ignores_the_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        with WorkerPool(2) as pool:
            pool.map("selftest_square", [{"x": i} for i in range(8)])
            assert pool.workers == 2
            assert len(pool.worker_stats) <= 2

    def test_task_registry_holds_only_the_fan_outs_that_fire(self):
        from repro.parallel.tasks import TASKS

        assert set(TASKS) == {
            "msm_window_slice", "ntt_sub", "fixed_base_chunk",
            "batch_verify_chunk",
            "selftest_square", "selftest_context", "selftest_fail",
        }


@pytest.fixture(params=[1, 2])
def pool(request):
    with WorkerPool(request.param) as p:
        yield p


class TestMap:
    def test_results_in_payload_order(self, pool):
        payloads = [{"x": i} for i in range(7)]
        results, fired = pool.map("selftest_square", payloads)
        assert results == [i * i for i in range(7)]
        assert fired == []

    def test_empty_map(self, pool):
        assert pool.map("selftest_square", []) == ([], [])

    def test_worker_stats_accumulate(self, pool):
        pool.map("selftest_square", [{"x": 1}, {"x": 2}])
        assert sum(s["tasks"] for s in pool.worker_stats.values()) >= 2
        for stats in pool.worker_stats.values():
            assert stats["wall_s"] >= 0.0
            assert stats["cpu_s"] >= 0.0

    def test_one_worker_runs_in_a_reaped_child(self):
        import multiprocessing

        before = {p.pid for p in multiprocessing.active_children()}
        pool = WorkerPool(1)
        pool.map("selftest_square", [{"x": 3}])
        (pid,) = pool.worker_stats
        assert pid != os.getpid()
        pool.close(graceful=True)
        after = {p.pid for p in multiprocessing.active_children()}
        assert pid not in after and not (after - before)

    def test_unknown_task_is_worker_crash(self, pool):
        with pytest.raises(WorkerCrash):
            pool.map("no_such_task", [{}])


class TestErrorContract:
    def test_taxonomy_error_comes_back_typed(self, pool):
        with pytest.raises(TransientFault):
            pool.map("selftest_fail", [{"type": "TransientFault"}])

    def test_timeout_comes_back_typed(self, pool):
        with pytest.raises(StageTimeout):
            pool.map("selftest_fail", [{"type": "StageTimeout"}])

    def test_value_error_passes_through(self, pool):
        with pytest.raises(ValueError, match="selftest failure"):
            pool.map("selftest_fail", [{"type": "ValueError"}])

    def test_untyped_error_becomes_worker_crash(self, pool):
        with pytest.raises(WorkerCrash) as err:
            pool.map("selftest_fail", [{"type": "RuntimeError",
                                        "message": "boom"}])
        assert err.value.code == "worker"
        assert err.value.exc_type == "RuntimeError"
        assert "boom" in str(err.value)

    def test_good_tasks_still_complete_alongside_a_failure(self, pool):
        # The map settles every envelope before raising the first error,
        # so worker stats see all three tasks.
        before = sum(s["tasks"] for s in pool.worker_stats.values())
        with pytest.raises(ValueError):
            pool.map("selftest_fail",
                     [{"type": "ValueError"}, {"type": "ValueError"}])
        pool.map("selftest_square", [{"x": 5}])
        after = sum(s["tasks"] for s in pool.worker_stats.values())
        assert after - before == 3


class TestEncodeDecode:
    def test_round_trip_typed(self):
        enc = encode_error(ArtifactCorruption("bad bytes"))
        exc = decode_error(enc)
        assert isinstance(exc, ArtifactCorruption)
        assert "bad bytes" in str(exc)

    def test_round_trip_passthrough(self):
        exc = decode_error(encode_error(TypeError("wrong type")))
        assert isinstance(exc, TypeError)

    def test_unknown_becomes_worker_crash_with_context(self):
        exc = decode_error(encode_error(KeyError("missing")),
                           task="msm_window_slice")
        assert isinstance(exc, WorkerCrash)
        assert exc.task == "msm_window_slice"
        assert exc.exc_type == "KeyError"


class TestLifecycle:
    def test_close_is_idempotent(self):
        pool = WorkerPool(2)
        pool.map("selftest_square", [{"x": 2}])
        pool.close()
        pool.close()

    def test_closed_process_pool_refuses_work(self):
        pool = WorkerPool(2)
        pool.close()
        with pytest.raises(RuntimeError):
            pool.map("selftest_square", [{"x": 2}])

    def test_closed_one_worker_pool_refuses_work(self):
        # One worker is a process pool too: the same guard, nothing inline.
        pool = WorkerPool(1)
        pool.close()
        with pytest.raises(RuntimeError, match="closed"):
            pool.map("selftest_square", [{"x": 2}])
        assert pool._pool is None

    def test_closed_property(self):
        pool = WorkerPool(2)
        assert pool.closed is False
        pool.close()
        assert pool.closed is True

    def test_graceful_close_with_inflight_map(self):
        """SIGTERM-drain contract: close(graceful=True) from another
        thread lets an in-flight map finish and deliver its results."""
        import threading
        import time as _time

        pool = WorkerPool(2)
        payloads = [{"x": i} for i in range(64)]
        results = {}

        def mapper():
            results["out"], _fired = pool.map("selftest_square", payloads)

        t = threading.Thread(target=mapper)
        t.start()
        _time.sleep(0.05)  # let the map start dispatching
        pool.close(graceful=True)
        t.join(timeout=60)
        assert not t.is_alive()
        assert results.get("out") == [i * i for i in range(64)]
        assert pool.closed

    def test_close_reaps_fork_children(self):
        """A drained pool leaves no orphaned worker processes behind."""
        import multiprocessing

        before = {p.pid for p in multiprocessing.active_children()}
        pool = WorkerPool(2)
        pool.map("selftest_square", [{"x": 3}])
        spawned = [p for p in multiprocessing.active_children()
                   if p.pid not in before]
        assert spawned, "the pool must fork workers"
        pool.close(graceful=True)
        after = {p.pid for p in multiprocessing.active_children()}
        assert not (after - before), "close() must reap every worker"

    def test_concurrent_close_and_map_race_is_typed(self):
        """A mapping thread racing a closing thread either completes or
        fails with the typed pool guard — never hangs or tracebacks."""
        import threading

        from repro.resilience.errors import PoolStateError

        for _ in range(5):
            pool = WorkerPool(2)
            errors = []

            def mapper():
                try:
                    pool.map("selftest_square", [{"x": 2}] * 8)
                except PoolStateError:
                    errors.append("typed")
                except Exception as exc:  # noqa: BLE001 - the failure mode under test
                    errors.append(repr(exc))

            threads = [threading.Thread(target=mapper) for _ in range(3)]
            for t in threads:
                t.start()
            pool.close(graceful=True)
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
            assert all(e == "typed" for e in errors), errors

    def test_lifecycle_guards_are_typed(self):
        # Both guards are taxonomy leaves (error[pool]) that still
        # satisfy the RuntimeError expectations of older callers.
        from repro.resilience.errors import PoolStateError

        pool = WorkerPool(2)
        pool.close()
        with pytest.raises(PoolStateError, match="closed") as exc_info:
            pool.map("selftest_square", [{"x": 2}])
        assert exc_info.value.one_line() == "error[pool]: pool is closed"
        with WorkerPool(2) as a, WorkerPool(2) as b:
            with using(a):
                with pytest.raises(PoolStateError, match="already active"):
                    with using(b):
                        pass


class TestInstallation:
    def test_using_installs_and_restores(self):
        assert active_pool() is None
        with WorkerPool(2) as pool:
            with using(pool):
                assert active_pool() is pool
                with using(pool):  # reentrant for the same pool
                    assert active_pool() is pool
            assert active_pool() is None

    def test_using_none_is_a_passthrough(self):
        with WorkerPool(2) as outer:
            with using(outer), using(None):
                assert active_pool() is outer

    def test_tracer_suppresses_the_pool(self):
        from repro.perf.trace import Tracer, tracing

        with WorkerPool(2) as pool, using(pool):
            assert active_pool() is pool
            with tracing(Tracer(label="t")):
                assert active_pool() is None
            assert active_pool() is pool
        assert active_pool() is None
