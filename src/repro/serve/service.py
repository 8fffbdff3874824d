"""`ProvingService`: the fault-tolerant asyncio front of the prover.

The service puts a *bounded* admission layer between callers and the
CPU-bound Groth16 core so that overload, stragglers and injected faults
all end as **typed** :class:`~repro.serve.jobs.JobResult`\\ s instead of
hangs:

- **Admission control** — a queue-depth cap and an in-flight cap; a
  request that would exceed either is shed immediately with
  :class:`~repro.resilience.errors.AdmissionError` (``error[admission]``,
  never retried by the service).
- **Deadline propagation** — each request carries a time budget that
  becomes a cooperative :class:`~repro.resilience.retry.Deadline` around
  its execution, so the MSM/NTT poll points cancel expired work from
  *inside* the kernels; a request that expires while still queued never
  touches the core at all.  Workers inherit the remaining budget through
  the pool's task context.
- **Retry + circuit breaker** — transient taxonomy faults are re-attempted
  under a seeded :class:`~repro.resilience.retry.RetryPolicy` (async
  backoff; the event loop keeps serving); repeated
  :class:`~repro.resilience.errors.WorkerCrash`\\ es trip a
  :class:`~repro.serve.breaker.CircuitBreaker` that reroutes jobs to the
  serial degradation path (the same kernels `resilient_msm` falls back
  on) until a cooldown probe proves the pool healthy again.
- **Verify coalescing** — verify requests are batched through
  :func:`~repro.groth16.batch.batch_verify` within a small window;
  a failing batch is bisected
  (:func:`~repro.resilience.degrade.batch_verify_bisect`) so exactly the
  poisoned members resolve ``accepted=False`` and everyone else still
  benefits from the folded check.
- **Graceful drain** — :meth:`ProvingService.drain` stops admission,
  lets in-flight jobs finish or deadline-out, then closes the worker
  pool gracefully (``WorkerPool.close(graceful=True)``), which is what
  the CLI ``serve`` verb runs on SIGTERM.
- **Per-request phase tracing** — every transition of a request's life
  marks the job's phase clock (:meth:`~repro.serve.jobs.Job.mark`), so
  each :class:`JobResult` resolves carrying an *additive* latency
  breakdown over :data:`~repro.serve.jobs.PHASES`:
  ``admission -> queue_wait -> coalesce_delay -> retry_backoff ->
  compute -> settle``, with ``repro_serve_phase_<phase>_seconds``
  histograms in the metrics registry and — when the PR 7 worker
  collector is installed — a worker-side split of the compute phase.
  The phases partition the request lifetime by construction, so their
  sum equals ``total_s`` within tolerance on every resolution path, and
  ``loadtest`` exits 1 on any request where it does not.

Execution model: one dedicated compute thread (the GIL makes CPU-bound
threads pointless anyway; real parallelism comes from the worker pool
the compute thread fans MSM/NTT chunks out to).  Serializing compute
also keeps the run context's fields (deadline, fault injector, pool)
race-free: one thread installs and reads them.
"""

from __future__ import annotations

import asyncio
import random
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext

from repro import parallel
from repro.context import RUN
from repro.obs.metrics import TIME_BUCKETS
from repro.resilience import retry as resilience
from repro.resilience.errors import (
    AdmissionError,
    ArtifactCorruption,
    ReproError,
    StageTimeout,
    WorkerCrash,
    classify,
    is_retryable,
)
from repro.resilience.retry import RetryPolicy
from repro.serve.breaker import CircuitBreaker
from repro.serve.jobs import KINDS, Job, JobResult
from repro.serve.pkcache import PKCache

__all__ = ["ARTIFACT_CACHE", "ProvingService", "SERVE_SITES"]

#: Fault-injection sites checked inside the service's compute closures
#: (``loadtest --faults`` draws its schedule from these plus the kernel
#: sites that prove/verify reach naturally).
SERVE_SITES = ("serve:prove", "serve:verify")

#: Queue sentinel that stops the executor loops.
_STOP = object()

#: Per-process proving-key cache: (curve, workload, size, seed) ->
#: prepared artifacts, so several services in one process (a loadtest
#: then a second one with faults armed, or every test of a suite) pay for
#: compile/setup/witness once per cell — LRU-bounded with hit/miss/
#: eviction counters (:mod:`repro.serve.pkcache`).
ARTIFACT_CACHE = PKCache()


class ProvingService:
    """Asyncio proving/verification service over one circuit cell.

    Parameters
    ----------
    curve / size / workload / seed:
        The circuit cell served (one proving key, cached per process).
    workers:
        Worker-pool size for the compute core (``None``/1 = serial).
    max_queue:
        Backlog cap: requests beyond this many *queued* jobs are shed.
    max_inflight:
        Total-outstanding cap (queued + executing): the hard bound on
        requests the service will hold un-resolved at once.
    default_deadline_s:
        Deadline applied to requests that do not carry their own.
    retry:
        :class:`RetryPolicy` for transient faults (seeded from *seed*
        when not given).
    breaker:
        :class:`CircuitBreaker` guarding the worker pool.
    batch_window_s / max_batch:
        Verify-coalescing window and batch-size cap.
    """

    def __init__(self, curve="bn128", size=64, workload="exponentiate",
                 workers=None, max_queue=16, max_inflight=64,
                 default_deadline_s=None, retry=None, breaker=None,
                 batch_window_s=0.005, max_batch=8, seed=0):
        if max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        if max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1, got {max_inflight}")
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self.curve = curve
        self.size = size
        self.workload = workload
        self.seed = seed
        self.workers = workers
        self.max_queue = max_queue
        self.max_inflight = max_inflight
        self.default_deadline_s = default_deadline_s
        self.batch_window_s = batch_window_s
        self.max_batch = max_batch
        self.retry = retry or RetryPolicy(max_attempts=3, seed=seed)
        self.breaker = breaker or CircuitBreaker()
        self.counts = {
            "submitted": 0, "ok": 0, "rejected": 0, "shed": 0,
            "timeout": 0, "error": 0, "retries": 0, "degraded": 0,
            "verify_batches": 0, "verify_coalesced": 0, "isolated_bad": 0,
        }
        self._pool = None
        self._executor = None
        self._prove_q = None
        self._verify_q = None
        self._tasks = []
        self._outstanding = 0
        self._next_id = 0
        self._batch_seq = 0
        self._started = False
        self._draining = False
        self._t0 = 0.0
        # Artifacts of the served cell (filled by start()).
        self._curve_obj = None
        self._circuit = None
        self._pk = None
        self._vk = None
        self._witness = None
        self._publics = None
        self._proof0 = None

    # -- lifecycle ----------------------------------------------------------------

    async def start(self):
        """Build (or fetch from the per-process cache) the circuit cell's
        artifacts and start the executor loops.  Idempotent."""
        if self._started:
            return self
        loop = asyncio.get_running_loop()
        # Timeline origin for JobResult.start_s (trace-export x axis).
        self._t0 = time.perf_counter()
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve")
        await loop.run_in_executor(self._executor, self._build_artifacts)
        if self.workers is not None and self.workers > 1:
            self._pool = parallel.WorkerPool(self.workers)
        self._prove_q = asyncio.Queue()
        self._verify_q = asyncio.Queue()
        self._tasks = [loop.create_task(self._prove_loop()),
                       loop.create_task(self._verify_loop())]
        self._draining = False
        self._started = True
        return self

    async def __aenter__(self):
        return await self.start()

    async def __aexit__(self, *exc):
        await self.drain()
        return False

    def _build_artifacts(self):
        from repro.circuit.compiler import compile_circuit
        from repro.curves import get_curve
        from repro.groth16 import (
            generate_witness,
            prove,
            public_inputs,
            setup,
        )
        from repro.harness.circuits import build_workload

        def build():
            curve = get_curve(self.curve)
            builder, inputs = build_workload(self.workload, curve, self.size)
            circuit = compile_circuit(builder)
            pk, vk = setup(curve, circuit,
                           random.Random(f"serve:setup:{self.seed}"))
            witness = generate_witness(circuit, inputs)
            publics = public_inputs(circuit, witness)
            proof0 = prove(pk, circuit, witness,
                           random.Random(f"serve:proof0:{self.seed}"))
            return (curve, circuit, pk, vk, witness, publics, proof0)

        key = (self.curve, self.workload, self.size, self.seed)
        (self._curve_obj, self._circuit, self._pk, self._vk,
         self._witness, self._publics, self._proof0) = \
            ARTIFACT_CACHE.get(key, build)
        # Cold start pays for the vk's line tables; no verify request does.
        self._vk.prepared

    async def drain(self, timeout_s=None):
        """Stop admitting, let in-flight jobs finish or deadline-out,
        then stop the loops and close the pool gracefully.

        With *timeout_s*, jobs still *queued* when it elapses resolve as
        ``error[timeout]`` without executing (the job actively running
        on the compute thread is always allowed to finish — its own
        deadline is the cancellation mechanism).
        """
        if not self._started:
            return
        self._draining = True
        deadline = (time.perf_counter() + timeout_s
                    if timeout_s is not None else None)
        while self._outstanding > 0:
            if deadline is not None and time.perf_counter() >= deadline:
                break
            await asyncio.sleep(0.002)
        self._flush_queue(self._prove_q)
        self._flush_queue(self._verify_q)
        self._prove_q.put_nowait(_STOP)
        self._verify_q.put_nowait(_STOP)
        await asyncio.gather(*self._tasks, return_exceptions=True)
        self._tasks = []
        self._executor.shutdown(wait=True)
        if self._pool is not None:
            self._pool.close(graceful=True)
            self._pool = None
        self._started = False

    def _flush_queue(self, queue):
        """Resolve every still-queued job as a drain timeout."""
        while True:
            try:
                job = queue.get_nowait()
            except asyncio.QueueEmpty:
                return
            if job is _STOP:
                queue.put_nowait(_STOP)
                return
            if job.accounted:
                continue
            # The job sat in the queue from admission until this flush.
            job.mark("queue_wait")
            exc = StageTimeout(
                f"request {job.request_id} drained before execution",
                stage="serve:drain")
            self._resolve(job, self._error_result(job, exc,
                                                  status="timeout"))

    # -- admission ----------------------------------------------------------------

    @property
    def queue_depth(self):
        if not self._started:
            return 0
        return self._prove_q.qsize() + self._verify_q.qsize()

    @property
    def outstanding(self):
        return self._outstanding

    def submit_nowait(self, kind="prove", deadline_s=None, payload=None):
        """Admit one request; returns the asyncio future of its
        :class:`JobResult`, or raises :class:`AdmissionError` when the
        request is shed (queue full, in-flight cap, or draining).

        *payload* for verify requests is ``(proof, publics)``; ``None``
        verifies the service's own sample proof.  Publics of the wrong
        arity are rejected up front with ``error[corrupt]`` — a poisoned
        request must not be able to take a whole batch down later.
        """
        # Phase origin: the admission phase spans from here to enqueue,
        # and total_s (elapsed from admitted_ts) then covers every phase.
        t_enter = time.perf_counter()
        if kind not in KINDS:
            raise ValueError(f"unknown request kind {kind!r}; "
                             f"choose from {KINDS}")
        if not self._started:
            raise AdmissionError("service is not running")
        self.counts["submitted"] += 1
        m = RUN.metrics
        if m is not None:
            m.inc("repro_serve_requests_total")
        if self._draining:
            self._shed(m, "service is draining; not admitting")
        if self._outstanding >= self.max_inflight:
            self._shed(m, f"in-flight cap reached "
                          f"({self._outstanding}/{self.max_inflight})")
        if self.queue_depth >= self.max_queue:
            self._shed(m, f"queue full ({self.queue_depth}/{self.max_queue})")
        if kind == "verify":
            if payload is None:
                payload = (self._proof0, list(self._publics))
            _proof, publics = payload
            try:
                self._vk.check_publics(publics)
            except ValueError as exc:
                raise ArtifactCorruption(
                    f"verify request rejected at admission: {exc}",
                    artifact="publics") from exc
        if deadline_s is None:
            deadline_s = self.default_deadline_s
        self._next_id += 1
        job = Job(request_id=self._next_id, kind=kind,
                  future=asyncio.get_running_loop().create_future(),
                  deadline_s=deadline_s, admitted_ts=t_enter,
                  payload=payload)
        self._outstanding += 1
        (self._prove_q if kind == "prove" else self._verify_q).put_nowait(job)
        job.mark("admission")
        if m is not None:
            m.set_gauge("repro_serve_queue_depth", self.queue_depth)
        return job.future

    async def submit(self, kind="prove", deadline_s=None, payload=None):
        """Admit one request and await its :class:`JobResult`."""
        return await self.submit_nowait(kind, deadline_s=deadline_s,
                                        payload=payload)

    def _shed(self, m, reason):
        self.counts["shed"] += 1
        if m is not None:
            m.inc("repro_serve_shed_total")
        raise AdmissionError(reason)

    # -- execution ----------------------------------------------------------------

    async def _prove_loop(self):
        while True:
            job = await self._prove_q.get()
            if job is _STOP:
                return
            if job.accounted:
                continue
            job.mark("queue_wait")
            await self._run_prove(job)

    async def _run_prove(self, job):
        queue_wait = job.elapsed()
        exec_start = time.perf_counter()
        loop = asyncio.get_running_loop()
        last = None
        attempts = 0
        degraded = False
        while attempts < self.retry.max_attempts:
            attempts += 1
            if job.expired():
                self._resolve(job, self._timeout_result(
                    job, queue_wait, exec_start, attempts - 1))
                return
            use_pool = self._pool is not None and self.breaker.allow_pool()
            degraded = self._pool is not None and not use_pool
            if degraded:
                self.counts["degraded"] += 1
            seed = f"serve:prove:{self.seed}:{job.request_id}:{attempts}"
            detail = None
            try:
                # The inner finally marks the compute phase on success
                # *and* on every raise, before the handlers below run;
                # the executor hop is part of compute (the compute thread
                # is the resource the request was waiting for).
                try:
                    proof, detail = await loop.run_in_executor(
                        self._executor, self._compute_prove,
                        use_pool, job.remaining(), seed)
                finally:
                    job.mark("compute")
            except StageTimeout:
                self._resolve(job, self._timeout_result(
                    job, queue_wait, exec_start, attempts))
                return
            except WorkerCrash as exc:
                if use_pool:
                    self.breaker.record_failure()
                last = exc
            except ReproError as exc:
                if not is_retryable(exc):
                    self._resolve(job, self._error_result(
                        job, exc, queue_wait=queue_wait,
                        service_s=time.perf_counter() - exec_start,
                        attempts=attempts, degraded=degraded))
                    return
                last = exc
            except Exception as exc:  # noqa: BLE001 - resolves typed-or-untyped, never hangs
                self._resolve(job, self._error_result(
                    job, exc, queue_wait=queue_wait,
                    service_s=time.perf_counter() - exec_start,
                    attempts=attempts, degraded=degraded))
                return
            else:
                if use_pool:
                    self.breaker.record_success()
                self._resolve(job, JobResult(
                    request_id=job.request_id, kind="prove", status="ok",
                    proof_bytes=proof.size_bytes(),
                    queue_wait_s=queue_wait,
                    service_s=time.perf_counter() - exec_start,
                    attempts=attempts, degraded=degraded,
                    compute_detail=detail))
                return
            # Retryable fault: async backoff, then go again.
            self.counts["retries"] += 1
            m = RUN.metrics
            if m is not None:
                m.inc("repro_serve_retries_total")
            if attempts < self.retry.max_attempts:
                delay = self.retry.delay(attempts)
                if self.retry.sleeps and delay > 0:
                    await asyncio.sleep(delay)
                job.mark("retry_backoff")
        self._resolve(job, self._error_result(
            job, last, queue_wait=queue_wait,
            service_s=time.perf_counter() - exec_start,
            attempts=attempts, degraded=degraded))

    def _compute_prove(self, use_pool, remaining, seed):
        """Compute-thread body of one prove attempt: deadline scope,
        fault site, optional pool, one Groth16 proof.

        Returns ``(proof, compute_detail)`` — the detail is the
        worker-side split of the compute phase when the PR 7 telemetry
        collector is installed (``None`` otherwise): how many pool tasks
        this proof fanned out and how much worker-busy time they cost.
        Compute is serialized on the single service thread, so the
        collector's task-list delta around the call is exactly this
        request's fan-out.
        """
        from repro.groth16 import prove

        collector = RUN.tasks
        n0 = 0
        if collector is not None:
            n0 = len(collector.tasks)
        with resilience.deadline_scope(remaining, stage="serve:proving"):
            inj = RUN.faults
            if inj is not None:
                inj.check("serve:prove")
            cm = (parallel.using(self._pool) if use_pool
                  else nullcontext())
            with cm:
                proof = prove(self._pk, self._circuit, self._witness,
                              random.Random(seed))
        detail = None
        if collector is not None:
            tasks = collector.tasks[n0:]
            if tasks:
                detail = {
                    "worker_tasks": len(tasks),
                    "worker_busy_s": round(
                        sum(t.get("wall_s", 0.0) for t in tasks), 6),
                }
        return proof, detail

    async def _verify_loop(self):
        loop = asyncio.get_running_loop()
        while True:
            job = await self._verify_q.get()
            if job is _STOP:
                return
            job.mark("queue_wait")
            batch = [job]
            if self.max_batch > 1 and self.batch_window_s > 0:
                end = loop.time() + self.batch_window_s
                while len(batch) < self.max_batch:
                    window = end - loop.time()
                    if window <= 0:
                        break
                    try:
                        nxt = await asyncio.wait_for(
                            self._verify_q.get(), window)
                    except asyncio.TimeoutError:
                        break
                    if nxt is _STOP:
                        self._verify_q.put_nowait(_STOP)
                        break
                    nxt.mark("queue_wait")
                    batch.append(nxt)
            await self._run_verify(batch)

    async def _run_verify(self, batch):
        exec_start = time.perf_counter()
        loop = asyncio.get_running_loop()
        live, waits = [], {}
        for job in batch:
            if job.accounted:
                continue
            # Dequeue-to-batch-execution is the coalescing window's cost
            # (the batch leader pays the full window; the last joiner ~0).
            job.mark("coalesce_delay")
            waits[job.request_id] = job.elapsed()
            if job.expired():
                self._resolve(job, self._timeout_result(
                    job, waits[job.request_id], exec_start, 0))
                continue
            live.append(job)
        if not live:
            return
        self.counts["verify_batches"] += 1
        if len(live) > 1:
            self.counts["verify_coalesced"] += len(live)
        m = RUN.metrics
        if m is not None:
            m.inc("repro_serve_verify_batches_total")
            m.observe("repro_serve_verify_batch_size", len(live))
        # The scope guards the whole batch with the *loosest* member
        # budget; members are re-checked against their own deadlines
        # afterwards (an unbounded member lifts the batch bound).
        remainings = [j.remaining() for j in live]
        batch_remaining = (None if any(r is None for r in remainings)
                           else max(remainings))
        self._batch_seq += 1
        seed = f"serve:verify:{self.seed}:{self._batch_seq}"
        payloads = [j.payload for j in live]
        attempts = 0
        last = None
        while attempts < self.retry.max_attempts:
            attempts += 1
            try:
                try:
                    ok, bad = await loop.run_in_executor(
                        self._executor, self._compute_verify,
                        payloads, batch_remaining, seed)
                finally:
                    for job in live:
                        job.mark("compute")
            except StageTimeout:
                for job in live:
                    self._resolve(job, self._timeout_result(
                        job, waits[job.request_id], exec_start, attempts))
                return
            except ReproError as exc:
                if is_retryable(exc) and attempts < self.retry.max_attempts:
                    last = exc
                    self.counts["retries"] += 1
                    if m is not None:
                        m.inc("repro_serve_retries_total")
                    delay = self.retry.delay(attempts)
                    if self.retry.sleeps and delay > 0:
                        await asyncio.sleep(delay)
                    for job in live:
                        job.mark("retry_backoff")
                    continue
                for job in live:
                    self._resolve(job, self._error_result(
                        job, exc, queue_wait=waits[job.request_id],
                        service_s=time.perf_counter() - exec_start,
                        attempts=attempts, batched=len(live)))
                return
            except Exception as exc:  # noqa: BLE001 - typed-or-untyped, never hangs
                for job in live:
                    self._resolve(job, self._error_result(
                        job, exc, queue_wait=waits[job.request_id],
                        service_s=time.perf_counter() - exec_start,
                        attempts=attempts, batched=len(live)))
                return
            else:
                bad_set = set(bad)
                if bad_set:
                    self.counts["isolated_bad"] += len(bad_set)
                    if m is not None:
                        m.inc("repro_serve_isolated_bad_total",
                              len(bad_set))
                service_s = time.perf_counter() - exec_start
                for i, job in enumerate(live):
                    if job.expired():
                        self._resolve(job, self._timeout_result(
                            job, waits[job.request_id], exec_start,
                            attempts))
                        continue
                    self._resolve(job, JobResult(
                        request_id=job.request_id, kind="verify",
                        status="ok", accepted=ok or i not in bad_set,
                        queue_wait_s=waits[job.request_id],
                        service_s=service_s, attempts=attempts,
                        batched=len(live)))
                return
        for job in live:
            self._resolve(job, self._error_result(
                job, last, queue_wait=waits[job.request_id],
                service_s=time.perf_counter() - exec_start,
                attempts=attempts, batched=len(live)))

    def _compute_verify(self, payloads, remaining, seed):
        """Compute-thread body of one coalesced verify batch: folded
        batch check, bisect on failure to isolate the poisoned members."""
        from repro.resilience.degrade import batch_verify_bisect

        with resilience.deadline_scope(remaining, stage="serve:verifying"):
            inj = RUN.faults
            if inj is not None:
                inj.check("serve:verify")
            use_pool = self._pool is not None and self.breaker.allow_pool()
            cm = parallel.using(self._pool) if use_pool else nullcontext()
            with cm:
                ok, bad = batch_verify_bisect(self._vk, payloads,
                                              random.Random(seed))
            if use_pool:
                self.breaker.record_success()
        return ok, bad

    # -- resolution ---------------------------------------------------------------

    def _timeout_result(self, job, queue_wait, exec_start, attempts):
        exc = StageTimeout(
            f"request {job.request_id} exceeded its "
            f"{job.deadline_s:.3f}s deadline" if job.deadline_s is not None
            else f"request {job.request_id} timed out",
            stage=f"serve:{job.kind}", deadline_s=job.deadline_s,
            elapsed_s=job.elapsed())
        return self._error_result(
            job, exc, status="timeout", queue_wait=queue_wait,
            service_s=max(0.0, time.perf_counter() - exec_start),
            attempts=attempts)

    def _error_result(self, job, exc, status="error", queue_wait=0.0,
                      service_s=0.0, attempts=0, batched=0, degraded=False):
        code = classify(exc)
        if status == "error" and code == "timeout":
            status = "timeout"
        one_line = (exc.one_line() if isinstance(exc, ReproError)
                    else f"error[untyped]: {type(exc).__name__}: {exc}")
        return JobResult(
            request_id=job.request_id, kind=job.kind, status=status,
            error_code=code, error=one_line, queue_wait_s=queue_wait,
            service_s=service_s, attempts=attempts, batched=batched,
            degraded=degraded)

    def _resolve(self, job, result):
        if job.accounted:
            return
        job.accounted = True
        self._outstanding -= 1
        # Close the phase clock before handing the result out: the tail
        # since the last mark is settle, and total_s is read off the
        # closed clock, so on every resolution path the phases partition
        # the request's lifetime and sum to total_s up to float rounding.
        result.phases = job.finish_phases()
        result.total_s = job.phase_cursor - job.admitted_ts
        result.start_s = max(0.0, job.admitted_ts - self._t0)
        # A caller may have cancelled the future (e.g. a load generator
        # torn down mid-run); the accounting above must still happen or
        # drain() would wait for the job forever.
        if not job.future.done():
            job.future.set_result(result)
        if result.status == "ok":
            self.counts["ok"] += 1
            if result.accepted is False:
                self.counts["rejected"] += 1
        else:
            self.counts[result.status] = self.counts.get(result.status, 0) + 1
        m = RUN.metrics
        if m is not None:
            m.inc(f"repro_serve_{job.kind}_resolved_total")
            if result.status == "timeout":
                m.inc("repro_serve_timeouts_total")
            elif result.status == "error":
                m.inc("repro_serve_errors_total")
            m.observe("repro_serve_latency_seconds", result.total_s,
                      buckets=TIME_BUCKETS)
            m.observe("repro_serve_queue_wait_seconds", result.queue_wait_s,
                      buckets=TIME_BUCKETS)
            for phase, dur in result.phases.items():
                m.observe(f"repro_serve_phase_{phase}_seconds", dur,
                          buckets=TIME_BUCKETS)
            m.set_gauge("repro_serve_queue_depth", self.queue_depth)

    # -- introspection ------------------------------------------------------------

    def verify_payload(self, bad=False):
        """A ``(proof, publics)`` verify payload against the service's
        own key; ``bad=True`` poisons it (valid shape, wrong public
        input) so the proof is *rejected*, exercising batch isolation."""
        publics = list(self._publics)
        if bad:
            if not publics:
                raise ValueError("cannot poison a zero-public circuit")
            publics[0] = (publics[0] + 1) % self._curve_obj.fr.modulus
        return (self._proof0, publics)

    def stats(self):
        return {
            "curve": self.curve, "size": self.size,
            "workload": self.workload,
            "workers": self.workers or 1,
            "max_queue": self.max_queue,
            "max_inflight": self.max_inflight,
            "default_deadline_s": self.default_deadline_s,
            "outstanding": self._outstanding,
            "queue_depth": self.queue_depth,
            "draining": self._draining,
            "counts": dict(self.counts),
            "breaker": self.breaker.to_dict(),
        }
