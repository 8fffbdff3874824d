"""Worker-pool contract: chunking, env config, both backends, typed errors.

The pool's promises (docs/PARALLELISM.md):

* ``chunk_slices`` partitions ``range(n)`` contiguously into near-equal,
  never-empty slices;
* the ``serial`` and ``process`` backends return identical results for
  identical maps;
* exceptions never cross the process boundary as pickled tracebacks —
  taxonomy errors come back as their own class, ``ValueError`` /
  ``TypeError`` as themselves, anything else as ``WorkerCrash``.
"""

import os

import pytest

from repro.parallel import pool as pool_mod
from repro.parallel.pool import (
    WorkerPool,
    active_pool,
    chunk_slices,
    decode_error,
    encode_error,
    parallel_pool,
    using,
    workers_from_env,
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


class TestWorkersFromEnv:
    def test_unset_returns_default(self, monkeypatch):
        monkeypatch.delenv(pool_mod.WORKERS_ENV, raising=False)
        assert workers_from_env() is None
        assert workers_from_env(default=3) == 3

    def test_valid_value(self, monkeypatch):
        monkeypatch.setenv(pool_mod.WORKERS_ENV, "4")
        assert workers_from_env() == 4

    def test_empty_value_falls_back(self, monkeypatch):
        monkeypatch.setenv(pool_mod.WORKERS_ENV, "")
        assert workers_from_env(default=1) == 1

    @pytest.mark.parametrize("raw", ["zero", "0", "-2", "2.5"])
    def test_bad_values_raise(self, raw, monkeypatch):
        # A set-but-bad value fails loudly (the CLI maps ValueError to the
        # typed one-line error contract) instead of silently running serial.
        monkeypatch.setenv(pool_mod.WORKERS_ENV, raw)
        with pytest.raises(ValueError, match="REPRO_WORKERS"):
            workers_from_env(default=1)


class TestConstruction:
    def test_one_worker_selects_serial_backend(self):
        with WorkerPool(1) as pool:
            assert pool.backend == "serial"

    def test_many_workers_select_process_backend(self):
        pool = WorkerPool(2)
        assert pool.backend == "process"
        pool.close()

    def test_env_default(self, monkeypatch):
        monkeypatch.setenv(pool_mod.WORKERS_ENV, "2")
        pool = WorkerPool()
        assert pool.workers == 2
        pool.close()

    def test_invalid_workers(self):
        with pytest.raises(ValueError):
            WorkerPool(0)

    def test_invalid_backend(self):
        with pytest.raises(ValueError):
            WorkerPool(2, backend="threads")

    def test_enabled_for_respects_thresholds(self):
        with WorkerPool(2, min_msm=16, min_ntt=8) as pool:
            assert pool.enabled_for(16, "msm")
            assert not pool.enabled_for(15, "msm")
            assert pool.enabled_for(8, "ntt")
        with WorkerPool(1, min_msm=1) as pool:
            assert not pool.enabled_for(1 << 20, "msm")  # one worker: never

    def test_default_ntt_threshold_is_the_two_core_crossover(self):
        # A pooled NTT loses to the serial one up to 2^11 on two cores.
        with WorkerPool(2) as pool:
            assert not pool.enabled_for(1 << 11, "ntt")
            assert pool.enabled_for(1 << 12, "ntt")


@pytest.fixture(params=["serial", "process"])
def pool(request):
    workers = 1 if request.param == "serial" else 2
    with WorkerPool(workers, backend=request.param) as p:
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

    def test_serial_backend_runs_in_parent(self):
        with WorkerPool(1) as p:
            p.map("selftest_square", [{"x": 3}])
            assert list(p.worker_stats) == [os.getpid()]

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

    def test_closed_serial_pool_refuses_work(self):
        from repro.resilience.errors import PoolStateError

        pool = WorkerPool(1)
        pool.close()
        with pytest.raises(PoolStateError, match="closed"):
            pool.map("selftest_square", [{"x": 2}])

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
        assert spawned, "the process backend must fork workers"
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

        with parallel_pool(2) as pool:
            assert active_pool() is pool
            with tracing(Tracer(label="t")):
                assert active_pool() is None
            assert active_pool() is pool
        assert active_pool() is None
