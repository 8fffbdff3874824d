"""Worker-pool abstraction of the parallel execution layer.

A :class:`WorkerPool` owns N worker processes and maps named *tasks* (from
the registry in :mod:`repro.parallel.tasks`) over payload chunks.  The
processes are a lazily created ``multiprocessing`` pool: workers are
forked on the first :meth:`WorkerPool.map`, so they inherit the parent's
loaded modules for free; the task envelope then *clears the run context*
(``RUN.clear()``: tracer, metrics, spans, worker telemetry, pool, faults,
deadline) so a worker never double-reports into telemetry the parent
also records.

The error contract — the part the resilience layer depends on — is that
exceptions never cross the process boundary as pickled tracebacks.  The
envelope catches everything, encodes it as a plain dict
(:func:`encode_error`), and the parent re-raises the *typed* equivalent
(:func:`decode_error`): taxonomy errors come back as their own class,
``ValueError``/``TypeError`` as themselves (API parity with the serial
kernels), and anything else as
:class:`~repro.resilience.errors.WorkerCrash`.

Context shipped with each task (the ``ctx`` dict) carries what a worker
cannot inherit: the remaining seconds of the parent's cooperative
:class:`~repro.resilience.retry.Deadline`, and — for chaos runs — a due
:class:`~repro.resilience.faults.FaultSpec` so the fault actually fires
*inside* the worker (see ``FaultInjector.arm``).

When a :class:`~repro.obs.worker.WorkerTelemetry` collector is installed
(``RUN.tasks``), the same context additionally carries
``telemetry: True`` plus a dispatch timestamp, and the envelope answers
with an opt-in telemetry block: envelope-entry time, queue wait, payload
decode / result encode timings and byte sizes, the peak-RSS delta, GC
collections and the task's metric deltas (captured under a fresh
registry, so the snapshot *is* the delta).  ``_settle`` turns each block
into the task's one record (:mod:`repro.obs.worker`), merges its metric
delta into the parent's registry, and — while spans record — builds the
task's ``task:<fn>`` bar from that record on its ``worker <pid>`` lane
under the ``parallel:*`` span, which carries the map's utilization and
imbalance.  Workers record no spans, so a task's timing is captured
once, in its record, and the worker layer stops being a telemetry black
box without giving up the hard reset that keeps untelemetered workers
silent.

The installed pool is ``RUN.pool`` (the run context,
docs/ARCHITECTURE.md): kernels ask :func:`active_pool` and stay on the
serial path when it returns ``None`` or the pool has one worker.
"""

from __future__ import annotations

import os
import pickle
import threading
import time
from contextlib import nullcontext

from repro.context import RUN, scoped
from repro.obs import metrics, spans
from repro.resilience import faults
from repro.resilience import retry as resilience
from repro.resilience.errors import (
    AdmissionError,
    ArtifactCorruption,
    PoolStateError,
    ResourceExhausted,
    StageOrderError,
    StageTimeout,
    TransientFault,
    WorkerCrash,
)

__all__ = [
    "WorkerPool",
    "active_pool",
    "chunk_slices",
    "decode_error",
    "encode_error",
    "using",
]


def chunk_slices(n, parts):
    """Split ``range(n)`` into at most *parts* contiguous ``(start, stop)``
    slices of near-equal size (never emits an empty slice)."""
    if n <= 0:
        return []
    parts = max(1, min(parts, n))
    base, extra = divmod(n, parts)
    slices = []
    start = 0
    for i in range(parts):
        stop = start + base + (1 if i < extra else 0)
        slices.append((start, stop))
        start = stop
    return slices


# -- typed-error envelope ----------------------------------------------------------

#: Taxonomy code -> class, for decoding worker-side failures.
_TYPED = {
    "transient": TransientFault,
    "timeout": StageTimeout,
    "corrupt": ArtifactCorruption,
    "resources": ResourceExhausted,
    "admission": AdmissionError,
    "order": StageOrderError,
    "pool": PoolStateError,
    "worker": WorkerCrash,
}

#: Untyped exceptions re-raised as themselves for serial-API parity; all
#: other untyped errors become ``WorkerCrash``.
_PASSTHROUGH = {"ValueError": ValueError, "TypeError": TypeError}


def encode_error(exc):
    """Plain-dict form of *exc* — the only shape errors travel in."""
    from repro.resilience.errors import classify

    return {
        "kind": classify(exc),
        "type": type(exc).__name__,
        "message": str(exc),
    }


def decode_error(enc, task=None):
    """Rebuild the typed exception *enc* describes (never a traceback)."""
    kind = enc.get("kind", "untyped")
    message = enc.get("message", "")
    cls = _TYPED.get(kind)
    if cls is not None:
        if cls is WorkerCrash:
            return WorkerCrash(message, task=task, exc_type=enc.get("type"))
        return cls(message)
    cls = _PASSTHROUGH.get(enc.get("type"))
    if cls is not None:
        return cls(message)
    return WorkerCrash(
        f"worker task {task or '?'} raised {enc.get('type', 'Exception')}: {message}",
        task=task,
        exc_type=enc.get("type"),
    )


# -- worker side -------------------------------------------------------------------


def _run_task(fn_name, payload, ctx):
    """Look up and run one registry task under the shipped context."""
    from repro.parallel import tasks

    fn = tasks.TASKS.get(fn_name)
    if fn is None:
        raise WorkerCrash(f"unknown worker task {fn_name!r}", task=fn_name)
    ctx = ctx or {}
    fault = ctx.get("fault")
    deadline_s = ctx.get("deadline_s")

    def run():
        if deadline_s is None:
            return fn(payload)
        with resilience.deadline_scope(deadline_s):
            return fn(payload)

    if fault is None:
        return run(), []
    # Re-arm the shipped fault spec in this worker.  The parent already
    # matched the hit cadence, so the spec fires on the first site check
    # here (hit=1); ``injecting`` is safe because the run context is clear.
    spec = faults.FaultSpec(fault["site"], fault["kind"], hit=1)
    with faults.injecting([spec]):
        result = run()
    return result, [s.to_dict() for s in [spec] if s.fired]


def _run_task_telemetered(fn_name, payload, ctx, wall0):
    """Run one task while capturing its telemetry block.

    Only reached when the parent shipped ``telemetry: True`` (a
    :class:`~repro.obs.worker.WorkerTelemetry` collector is installed), so
    the plain path in :func:`_worker_envelope` stays untouched.  The task
    runs under a *fresh* metrics registry — the run context was just
    cleared, so installing it cannot nest — which makes the shipped
    snapshot exactly the task's delta.  Returns
    ``(value, fired, telemetry_block)``; the result-encode fields are
    filled in by the envelope after the task clocks stop.
    """
    sent = ctx.get("sent_ts")
    tel = {
        "t0": wall0,
        # perf_counter is CLOCK_MONOTONIC, shared with the forked parent,
        # so dispatch-to-envelope-entry is directly computable.
        "queue_wait_s": round(max(0.0, wall0 - sent), 6)
                        if sent is not None else 0.0,
        "payload_bytes": 0,
    }
    d0 = time.perf_counter()
    if ctx.get("packed"):
        tel["payload_bytes"] = len(payload)
        payload = pickle.loads(payload)
    tel["decode_s"] = round(time.perf_counter() - d0, 6)
    rss0, gc0 = spans._rss_peak_kb(), spans._gc_collections()
    with metrics.collecting() as reg:
        value, fired = _run_task(fn_name, payload, ctx)
    tel["rss_peak_delta_kb"] = spans._rss_peak_kb() - rss0
    tel["gc_collections"] = spans._gc_collections() - gc0
    tel["metrics"] = reg.snapshot()
    return value, fired, tel


def _worker_envelope(job):
    """Top-level task wrapper executed inside a worker process.

    Must stay a module-level function (picklable by reference).  Returns a
    plain dict; never lets an exception propagate to the pool machinery.
    """
    fn_name, payload, ctx = job
    RUN.clear()
    wall0 = time.perf_counter()
    cpu0 = time.process_time()
    tel = None
    try:
        if ctx and ctx.get("telemetry"):
            value, fired, tel = _run_task_telemetered(fn_name, payload, ctx,
                                                      wall0)
        else:
            value, fired = _run_task(fn_name, payload, ctx)
        ok, out = True, value
    except BaseException as exc:  # noqa: BLE001 - the envelope is the boundary
        ok, out, tel = False, encode_error(exc), None
        # A fault that fired by raising still counts as fired.
        fired = ([dict(ctx["fault"], fired=True)]
                 if ctx and ctx.get("fault") is not None else [])
    env = {
        "ok": ok,
        "value": out,
        "fired": fired,
        "pid": os.getpid(),
        "wall_s": time.perf_counter() - wall0,
        "cpu_s": time.process_time() - cpu0,
    }
    if tel is not None:
        # Pickle the result explicitly (and after the task clocks stop) so
        # the wire cost is measured instead of hidden inside the pool's
        # own serialization of the envelope.
        e0 = time.perf_counter()
        env["value"] = pickle.dumps(out, pickle.HIGHEST_PROTOCOL)
        tel["encode_s"] = round(time.perf_counter() - e0, 6)
        tel["result_bytes"] = len(env["value"])
        env["packed"] = True
        env["telemetry"] = tel
    return env


# -- parent side -------------------------------------------------------------------


class WorkerPool:
    """N-worker process pool, forked on the first :meth:`map`.

    Parameters
    ----------
    workers:
        Worker count.  One worker is still a forked process; kernels never
        map on it (:meth:`enabled_for`), so callers that want a serial run
        install no pool at all.
    min_msm / min_ntt / min_batch:
        Smallest input sizes worth fanning out (for an MSM, live terms);
        below them kernels stay serial.  ``min_ntt`` is the crossover
        measured with two workers on two cores: a pooled NTT loses up to
        2^11 and wins from 2^12 (docs/PARALLELISM.md).  Tests lower these
        so tiny differential cells still exercise the parallel paths.
    """

    def __init__(self, workers, *, min_msm=64, min_ntt=4096, min_batch=2):
        workers = int(workers)
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.min_msm = min_msm
        self.min_ntt = min_ntt
        self.min_batch = min_batch
        self._pool = None
        self._closed = False
        # Serializes lifecycle transitions (_ensure_pool / close) so a
        # drain thread closing the pool cannot race a mapping thread
        # materializing it — the SIGTERM-drain contract of repro.serve.
        self._lock = threading.Lock()
        #: pid -> {"tasks", "wall_s", "cpu_s"} accumulated over every map.
        self.worker_stats = {}

    # -- lifecycle ----------------------------------------------------------------

    @property
    def closed(self):
        return self._closed

    def _ensure_pool(self):
        with self._lock:
            if self._closed:
                raise PoolStateError("pool is closed")
            if self._pool is None:
                import multiprocessing

                ctx = multiprocessing.get_context(
                    "fork" if "fork" in multiprocessing.get_all_start_methods()
                    else None
                )
                self._pool = ctx.Pool(processes=self.workers)
            return self._pool

    def close(self, graceful=False):
        """Tear down the worker processes (idempotent, thread-safe).

        With ``graceful=True`` outstanding tasks of an in-flight
        :meth:`map` finish and deliver their results before the workers
        exit (``multiprocessing.Pool.close``); the default terminates the
        workers immediately.  Either way ``join()`` reaps every forked
        child, so a drained pool leaves no orphans behind — the property
        the SIGTERM drain of :mod:`repro.serve` (and its test) pins down.
        """
        with self._lock:
            self._closed = True
            pool, self._pool = self._pool, None
        if pool is not None:
            if graceful:
                pool.close()
            else:
                pool.terminate()
            pool.join()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    # -- execution ----------------------------------------------------------------

    def enabled_for(self, n, kind="msm"):
        """Whether fanning *n* items of *kind* (``"msm"``, ``"ntt"`` or
        ``"batch"``) out through this pool is worthwhile."""
        if kind not in ("msm", "ntt", "batch"):
            raise ValueError(f"unknown fan-out kind {kind!r}")
        return self.workers > 1 and n >= getattr(self, f"min_{kind}")

    def map(self, fn_name, payloads, ctxs=None, label=None):
        """Run registry task *fn_name* over *payloads*; results in order.

        *ctxs*, when given, aligns with *payloads* (entries may be
        ``None``).  Each task additionally receives the remaining seconds
        of the parent's active deadline, so workers honor it
        cooperatively.  The first failed task raises its decoded typed
        error after all tasks settle.  Returns ``(results, fired)`` where
        *fired* lists fault-spec dicts that fired inside workers.
        """
        payloads = list(payloads)
        if not payloads:
            return [], []
        tel = RUN.tasks
        base_ctx = {}
        if RUN.deadline is not None:
            base_ctx["deadline_s"] = max(
                0.001, RUN.deadline.seconds - RUN.deadline.elapsed()
            )
        jobs = []
        parent_encode = []
        for i, payload in enumerate(payloads):
            ctx = dict(base_ctx)
            if ctxs is not None and ctxs[i]:
                ctx.update(ctxs[i])
            if tel is not None:
                # Pack the payload ourselves so the encode cost and byte
                # size are measured; the pool then pickles cheap bytes.
                ctx["telemetry"] = True
                ctx["packed"] = True
                e0 = time.perf_counter()
                payload = pickle.dumps(payload, pickle.HIGHEST_PROTOCOL)
                parent_encode.append(
                    (round(time.perf_counter() - e0, 6), len(payload)))
            jobs.append((fn_name, payload, ctx))

        with spans.span(f"parallel:{label or fn_name}",
                        workers=self.workers):
            map_start = time.perf_counter()
            if tel is not None:
                for _, _, ctx in jobs:
                    ctx["sent_ts"] = map_start
            envelopes = self._ensure_pool().map(_worker_envelope, jobs)
            return self._settle(envelopes, fn_name, label, tel, map_start,
                                parent_encode)

    def _settle(self, envelopes, fn_name, label, telemetry, map_start,
                parent_encode):
        results = []
        first_err = None
        fired = []
        task_records = []
        m = RUN.metrics
        # While spans record, the innermost open span is the ``parallel:*``
        # one map() holds: the task bars hang under it.
        recorder = RUN.spans
        for i, env in enumerate(envelopes):
            fired.extend(env.get("fired") or [])
            stats = self.worker_stats.setdefault(
                env["pid"], {"tasks": 0, "wall_s": 0.0, "cpu_s": 0.0})
            stats["tasks"] += 1
            stats["wall_s"] += env["wall_s"]
            stats["cpu_s"] += env["cpu_s"]
            parent_decode = 0.0
            if env["ok"]:
                value = env["value"]
                if env.get("packed"):
                    d0 = time.perf_counter()
                    value = pickle.loads(value)
                    parent_decode = round(time.perf_counter() - d0, 6)
                results.append(value)
            elif first_err is None:
                first_err = decode_error(env["value"], task=fn_name)
            if telemetry is not None:
                task_records.append(self._merge_task(
                    env, fn_name, label, telemetry, m, parent_encode[i],
                    parent_decode, recorder))
        if m is not None:
            m.inc("repro_parallel_maps_total")
            m.inc("repro_parallel_tasks_total", len(envelopes))
        if telemetry is not None:
            map_rec = telemetry.record_map(
                label=label or fn_name, task=fn_name, workers=self.workers,
                start_s=map_start - telemetry.t0,
                wall_s=time.perf_counter() - map_start,
                task_records=task_records)
            if recorder is not None:
                recorder.innermost.meta.update(
                    utilization=map_rec["utilization"],
                    imbalance=map_rec["imbalance"])
        if first_err is not None:
            raise first_err
        return results, fired

    def _merge_task(self, env, fn_name, label, telemetry, m, parent_encode,
                    parent_decode, recorder):
        """Build one envelope's task record, fold its metric delta into
        the parent registry and — under a span *recorder* — append the
        task's bar, built from the record, to the map's ``parallel:*``
        span."""
        rec = {
            "pid": env["pid"],
            "task": fn_name,
            "label": label or fn_name,
            "ok": env["ok"],
            "wall_s": round(env["wall_s"], 6),
            "cpu_s": round(env["cpu_s"], 6),
        }
        tb = env.get("telemetry")
        if tb is None:
            return rec
        enc_s, payload_bytes = parent_encode
        rec["start_s"] = round(tb["t0"] - telemetry.t0, 6)
        rec["queue_wait_s"] = tb["queue_wait_s"]
        rec["decode_s"] = round(tb["decode_s"] + parent_decode, 6)
        rec["encode_s"] = round(tb["encode_s"] + enc_s, 6)
        rec["payload_bytes"] = payload_bytes
        rec["result_bytes"] = tb["result_bytes"]
        rec["rss_peak_delta_kb"] = tb["rss_peak_delta_kb"]
        rec["gc_collections"] = tb["gc_collections"]
        if m is not None:
            m.merge(tb["metrics"])
        if recorder is not None:
            # The bar carries its wire costs, so the span trace alone shows
            # why a lane sat idle.
            window = recorder.innermost
            window.children.append(spans.Span(
                name=f"task:{fn_name}", depth=window.depth + 1,
                start_s=tb["t0"] - recorder.t0, wall_s=rec["wall_s"],
                cpu_s=rec["cpu_s"],
                rss_peak_delta_kb=rec["rss_peak_delta_kb"],
                gc_collections=rec["gc_collections"],
                meta={"lane": f"worker {env['pid']}",
                      **{k: rec[k] for k in (
                          "queue_wait_s", "decode_s", "encode_s",
                          "payload_bytes", "result_bytes")}}))
        return rec


# -- installation ------------------------------------------------------------------


def active_pool():
    """The installed pool when parallel execution should engage, else
    ``None`` — also under a tracer (the pinning rule, docs/KERNELS.md)."""
    return RUN.pool if RUN.tracer is None else None


def using(pool):
    """Install an existing :class:`WorkerPool` as ``RUN.pool``.

    Reentrant for the *same* pool (the workflow wraps every stage; nested
    kernels re-enter); a different pool underneath an active one is a bug.
    """
    if pool is None or RUN.pool is pool:
        return nullcontext(pool)
    return scoped("pool", pool,
                  busy=PoolStateError("a worker pool is already active"))
