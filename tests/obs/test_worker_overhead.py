"""Worker-telemetry overhead contract (mirrors tests/obs/test_prof_overhead.py).

Two promises from docs/PARALLELISM.md:

* **Disabled path is free.**  Without an installed collector the pool
  ships no telemetry context and the envelope attaches no block — the
  cost is one attribute read plus an ``is None`` check per map.
* **Enabled path is bounded.**  With a collector on, a compute-bound
  task may slow down by at most ``ENABLED_OVERHEAD_BOUND`` (the capture
  cost — one fresh registry, one span recorder, a few clock reads, one
  pickle of the result — is fixed per task and amortizes over
  chunk-sized work).

The envelope is exercised in-process (it is a plain function); that calls
``RUN.clear()``, which is safe here because these tests never
hold a live parent-side collector while doing so.
"""

import gc
import pickle
import time

import pytest

from repro.context import RUN
from repro.fields import BN254_FR
from repro.obs.worker import ENABLED_OVERHEAD_BOUND
from repro.parallel.pool import WorkerPool, _worker_envelope

#: A compute-dense payload: many modular linear-combination steps, so the
#: per-task capture cost is measured against real work, not noise.
_STEPS = 600


def _dense_payload():
    p = BN254_FR.modulus
    values = [pow(3, i, p) for i in range(64)]
    steps = [
        ([(i % 64, 7), ((i + 13) % 64, 11)], 5, [((i + 29) % 64, 3)], 1)
        for i in range(_STEPS)
    ]
    return {"modulus": p, "values": values, "steps": steps}


class TestDisabledPath:
    def test_envelope_carries_no_block(self):
        env = _worker_envelope(("selftest_square", {"x": 3}, {}))
        assert env["ok"] is True and env["value"] == 9
        assert "telemetry" not in env
        assert "packed" not in env
        assert set(env) == {"ok", "value", "fired", "pid", "wall_s", "cpu_s"}

    def test_map_ships_no_telemetry_context(self, monkeypatch):
        """Without a collector the process backend must not stamp
        ``telemetry``/``packed``/``sent_ts`` into any shipped context."""
        shipped = []

        class _InlinePool:
            def map(self, fn, jobs):
                shipped.extend(jobs)
                return [fn(job) for job in jobs]

        pool = WorkerPool(2)
        monkeypatch.setattr(pool, "_ensure_pool", lambda: _InlinePool())
        results, _ = pool.map("selftest_square", [{"x": i} for i in range(4)])
        pool.close()
        assert results == [0, 1, 4, 9]
        assert RUN.tasks is None  # precondition of the contract
        for _, _, ctx in shipped:
            assert "telemetry" not in ctx
            assert "packed" not in ctx
            assert "sent_ts" not in ctx


class TestEnabledPath:
    def _timed(self, job):
        t0 = time.process_time()
        env = _worker_envelope(job)
        elapsed = time.process_time() - t0
        assert env["ok"] is True
        return elapsed

    def test_enabled_overhead_within_documented_bound(self):
        payload = _dense_payload()
        plain_job = ("witness_mul_chunk", payload, {})
        packed = pickle.dumps(payload, pickle.HIGHEST_PROTOCOL)
        tel_job = ("witness_mul_chunk", packed,
                   {"telemetry": True, "packed": True,
                    "sent_ts": time.perf_counter()})
        # Warm-up once, then interleaved best-of-5 on both sides with GC
        # paused: process_time excludes scheduling, so collector pauses
        # are the remaining noise that inflates single runs.
        self._timed(plain_job)
        self._timed(tel_job)
        gc.collect()
        gc.disable()
        try:
            samples = [(self._timed(plain_job), self._timed(tel_job))
                       for _ in range(5)]
        finally:
            gc.enable()
        plain = min(p for p, _ in samples)
        telemetered = min(t for _, t in samples)
        ratio = telemetered / max(plain, 1e-9)
        assert ratio <= ENABLED_OVERHEAD_BOUND, (
            f"telemetered envelope {ratio:.2f}x slower than plain "
            f"(bound {ENABLED_OVERHEAD_BOUND}x)"
        )

    def test_telemetered_envelope_block_is_complete(self):
        payload = _dense_payload()
        packed = pickle.dumps(payload, pickle.HIGHEST_PROTOCOL)
        env = _worker_envelope(("witness_mul_chunk", packed,
                                {"telemetry": True, "packed": True,
                                 "sent_ts": time.perf_counter()}))
        assert env["ok"] is True and env["packed"] is True
        out = pickle.loads(env["value"])
        assert len(out) == _STEPS
        tel = env["telemetry"]
        assert tel["payload_bytes"] == len(packed)
        assert tel["result_bytes"] == len(env["value"])
        assert tel["queue_wait_s"] >= 0.0
        assert tel["decode_s"] >= 0.0 and tel["encode_s"] >= 0.0
        assert tel["spans"]["name"] == "task:witness_mul_chunk"
        assert isinstance(tel["metrics"], dict)

    def test_failed_task_ships_no_block(self):
        env = _worker_envelope(("selftest_fail",
                                pickle.dumps({"type": "ValueError"},
                                             pickle.HIGHEST_PROTOCOL),
                                {"telemetry": True, "packed": True}))
        assert env["ok"] is False
        assert "telemetry" not in env
        assert "packed" not in env


@pytest.fixture(autouse=True)
def _no_leaked_collector():
    """The envelope clears the run context in-process; make sure the tests
    above really do run collector-free and leave the slot clean."""
    assert RUN.tasks is None
    yield
    assert RUN.tasks is None
