"""`ProvingService`: the fault-tolerant asyncio front of the prover.

The service puts a *bounded* admission layer between callers and the
CPU-bound Groth16 core so that overload, stragglers and injected faults
all end as **typed** :class:`~repro.serve.jobs.JobResult`\\ s instead of
hangs:

- **Admission control** — a queue-depth cap and an in-flight cap; a
  request that would exceed either is shed immediately with
  :class:`~repro.resilience.errors.AdmissionError` (``error[admission]``,
  never retried by the service).
- **Deadline propagation** — each request's time budget becomes a
  cooperative :class:`~repro.resilience.retry.Deadline` around its
  execution, so the MSM/NTT poll points cancel expired work from *inside*
  the kernels (workers inherit it through the pool's task context); a
  request that expires while still queued never touches the core.
- **One request path, one stage runner** — a prove is a batch of one:
  both kinds go through one queue loop (:meth:`ProvingService._loop`),
  one attempt ladder (:meth:`ProvingService._execute`) and one compute
  body (:meth:`ProvingService._compute`), which runs its call through
  the pipeline's :func:`~repro.workflow.run_body` as the ``proving`` or
  ``verifying`` stage (same span, stage tag and counters); the cold
  start is a serial :class:`~repro.workflow.Workflow` up to ``proving``.
- **Retry + circuit breaker** — transient taxonomy faults are re-attempted
  under a seeded :class:`~repro.resilience.retry.RetryPolicy` (async
  backoff; the event loop keeps serving); repeated
  :class:`~repro.resilience.errors.WorkerCrash`\\ es trip a
  :class:`~repro.serve.breaker.CircuitBreaker` that reroutes jobs to the
  serial path until a cooldown probe proves the pool healthy again (a
  pool attempt that ends in neither verdict — a timeout, another fault —
  hands the probe back).
- **Verify coalescing** — verify requests arriving within a small window
  are batched into one folded check; a failing batch is bisected
  (:func:`~repro.resilience.degrade.batch_verify_bisect`) so exactly the
  poisoned members resolve ``accepted=False``.
- **Graceful drain** — :meth:`ProvingService.drain` stops admission,
  lets in-flight jobs finish or deadline-out, then closes the worker
  pool gracefully (``WorkerPool.close(graceful=True)``), which is what
  the CLI ``loadtest`` verb runs on SIGTERM.
- **Per-request phase tracing** — every transition of a request's life
  marks the job's phase clock (:meth:`~repro.serve.jobs.Job.mark`), so
  each :class:`JobResult` carries an *additive* latency breakdown over
  :data:`~repro.serve.jobs.PHASES` (``admission -> queue_wait ->
  coalesce_delay -> retry_backoff -> compute -> settle``).  The phases
  partition the request's lifetime, so they sum to ``total_s`` on every
  resolution path, and ``loadtest`` exits 1 on any request where they do
  not.  The ``JobResult`` is the one capture of a request's timing: the
  metrics registry gets counters and the queue-depth gauge, no latency
  histograms, and the load report and request trace read the results.

Execution model: one dedicated compute thread (the GIL makes CPU-bound
threads pointless; real parallelism comes from the worker pool it fans
MSM/NTT chunks out to).  Serializing compute also keeps the run
context's fields race-free: one thread installs and reads them.  The
breaker, the counters and every resolution run on the event-loop thread.
"""

from __future__ import annotations

import asyncio
import random
import time
from concurrent.futures import ThreadPoolExecutor

from repro import parallel
from repro.context import RUN
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
from repro.workflow import STAGES, Workflow, run_body

__all__ = ["ARTIFACT_CACHE", "ProvingService", "SERVE_SITES"]

#: Fault-injection sites checked by the service's compute body
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
        self._curve_obj = self._circuit = self._pk = self._vk = None
        self._witness = self._publics = self._proof0 = None

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
        self._tasks = [
            loop.create_task(self._loop(self._prove_q)),
            loop.create_task(self._loop(self._verify_q, self.batch_window_s,
                                        self.max_batch))]
        self._draining = False
        self._started = True
        return self

    async def __aenter__(self):
        return await self.start()

    async def __aexit__(self, *exc):
        await self.drain()
        return False

    def _build_artifacts(self):
        from repro.curves import get_curve
        from repro.groth16 import public_inputs
        from repro.harness.circuits import build_workload

        def build():
            # The pipeline's own stages, serially, up to ``proving``: its
            # proof is the sample a verify request defaults to.
            curve = get_curve(self.curve)
            wf = Workflow(curve, *build_workload(self.workload, curve,
                                                 self.size), seed=self.seed)
            for stage in STAGES[:-1]:
                wf.run_stage(stage)
            return (curve, wf.circuit, wf.pk, wf.vk, wf.witness,
                    public_inputs(wf.circuit, wf.witness), wf.proof)

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
            # The job sat in the queue from admission until this flush.
            job.mark("queue_wait")
            self._resolve(job, self._error_result(job, StageTimeout(
                f"request {job.request_id} drained before execution",
                stage="serve:drain")))

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
        arity, or not reduced ``Fr`` integers, are rejected up front with
        ``error[corrupt]`` — a poisoned request must not be able to take a
        whole batch down later.
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

    async def _loop(self, queue, window_s=0.0, max_batch=1):
        """Take the next job plus whatever else arrives within *window_s*
        (up to *max_batch* in all) and run them as one batch."""
        loop = asyncio.get_running_loop()
        while True:
            job = await queue.get()
            if job is _STOP:
                return
            job.mark("queue_wait")
            batch = [job]
            end = loop.time() + window_s
            while len(batch) < max_batch and (left := end - loop.time()) > 0:
                try:
                    nxt = await asyncio.wait_for(queue.get(), left)
                except asyncio.TimeoutError:
                    break
                if nxt is _STOP:
                    queue.put_nowait(_STOP)
                    break
                nxt.mark("queue_wait")
                batch.append(nxt)
            if max_batch > 1:
                # Dequeue to the window's close is the coalescing cost
                # (the batch leader pays the full window; the last joiner ~0).
                for member in batch:
                    member.mark("coalesce_delay")
            await self._execute(job.kind, batch)

    async def _execute(self, kind, batch):
        """The one attempt ladder, for a batch of *kind* jobs (a prove is a
        batch of one), on the event-loop thread.

        Each attempt resolves the members already past their deadline,
        takes the breaker's decision and makes one executor hop.  When the
        pool was used, success closes the breaker, a ``WorkerCrash``
        counts against it, and any other end releases its probe slot.
        Then success resolves each member with its result, or as
        ``timeout`` if its own deadline passed meanwhile; a
        ``StageTimeout`` times every member out; a crash or a retryable
        fault backs off and goes again; any other fault resolves
        ``error``.
        """
        loop = asyncio.get_running_loop()
        m = RUN.metrics
        live, attempts, degraded, last = batch, 0, False, None

        def resolve(job, exc=None, **fields):
            fields.update(attempts=attempts, degraded=degraded,
                          batched=len(live) if kind == "verify" else 0)
            if exc is None:
                result = JobResult(job.request_id, kind, "ok", **fields)
            else:
                result = self._error_result(job, exc, **fields)
            self._resolve(job, result)

        while attempts < self.retry.max_attempts:
            for job in live:
                if job.expired():
                    resolve(job, self._deadline_error(job))
            live = [job for job in live if not job.accounted]
            if not live:
                return
            attempts += 1
            if kind == "verify" and attempts == 1:
                self._batch_seq += 1
                self.counts["verify_batches"] += 1
                if len(live) > 1:
                    self.counts["verify_coalesced"] += len(live)
                if m is not None:
                    m.inc("repro_serve_verify_batches_total")
                    m.observe("repro_serve_verify_batch_size", len(live))
            use_pool = self._pool is not None and self.breaker.allow_pool()
            degraded = self._pool is not None and not use_pool
            if degraded:
                self.counts["degraded"] += 1
            seed = (f"serve:prove:{self.seed}:{live[0].request_id}:{attempts}"
                    if kind == "prove"
                    else f"serve:verify:{self.seed}:{self._batch_seq}")
            fault = None
            try:
                results = await loop.run_in_executor(
                    self._executor, self._compute, kind, live, use_pool,
                    seed)
            except Exception as exc:  # noqa: BLE001 - typed-or-untyped, never hangs
                fault = exc
            finally:
                # The executor hop is part of compute (the compute thread
                # is the resource the batch was waiting for).
                for job in live:
                    job.mark("compute")
            if use_pool:
                # Only a success or a crash is a verdict on the pool; any
                # other end hands a half-open probe back.
                if fault is None:
                    self.breaker.record_success()
                elif isinstance(fault, WorkerCrash):
                    self.breaker.record_failure()
                else:
                    self.breaker.release()
            if fault is None:
                bad = sum(r.get("accepted") is False for r in results)
                if bad:
                    self.counts["isolated_bad"] += bad
                    if m is not None:
                        m.inc("repro_serve_isolated_bad_total", bad)
                for job, fields in zip(live, results):
                    if job.expired():
                        resolve(job, self._deadline_error(job))
                    else:
                        resolve(job, **fields)
                return
            if isinstance(fault, StageTimeout):
                for job in live:
                    resolve(job, self._deadline_error(job))
                return
            if not isinstance(fault, WorkerCrash) and not is_retryable(fault):
                for job in live:
                    resolve(job, fault)
                return
            last = fault
            # A crash or a retryable fault: async backoff, then go again.
            self.counts["retries"] += 1
            if m is not None:
                m.inc("repro_serve_retries_total")
            if attempts < self.retry.max_attempts:
                delay = self.retry.delay(attempts)
                if self.retry.sleeps and delay > 0:
                    await asyncio.sleep(delay)
                for job in live:
                    job.mark("retry_backoff")
        for job in live:
            resolve(job, last)

    def _compute(self, kind, jobs, use_pool, seed):
        """Compute-thread body of one attempt; returns each member's
        result fields.  :func:`~repro.workflow.run_body` runs the kind's
        one call as its Fig. 1 stage at the ``serve:<kind>`` fault site,
        on the pool the breaker allowed, under the loosest member budget
        (an unbounded member lifts it; members are re-checked against
        their own deadlines afterwards).  ``prove`` is looked up at call
        time, so a rebinding of ``repro.groth16.prove`` is what runs.
        """
        from repro.groth16 import prove
        from repro.resilience.degrade import batch_verify_bisect

        def body():
            if kind == "prove":
                proof = prove(self._pk, self._circuit, self._witness,
                              random.Random(seed))
                return [{"proof_bytes": proof.size_bytes()}]
            ok, bad = batch_verify_bisect(
                self._vk, [job.payload for job in jobs], random.Random(seed))
            return [{"accepted": ok or i not in bad}
                    for i in range(len(jobs))]

        budgets = [job.remaining() for job in jobs]
        return run_body(
            "proving" if kind == "prove" else "verifying", body,
            f"serve:{kind}", pool=self._pool if use_pool else None,
            budget=None if None in budgets else max(budgets),
            curve=self.curve, circuit=self._circuit.name)[0]

    # -- resolution ---------------------------------------------------------------

    @staticmethod
    def _deadline_error(job):
        return StageTimeout(
            f"request {job.request_id} exceeded its "
            f"{job.deadline_s:.3f}s deadline" if job.deadline_s is not None
            else f"request {job.request_id} timed out",
            stage=f"serve:{job.kind}", deadline_s=job.deadline_s,
            elapsed_s=job.elapsed())

    @staticmethod
    def _error_result(job, exc, **fields):
        code = classify(exc)
        one_line = (exc.one_line() if isinstance(exc, ReproError)
                    else f"error[untyped]: {type(exc).__name__}: {exc}")
        return JobResult(
            request_id=job.request_id, kind=job.kind,
            status="timeout" if code == "timeout" else "error",
            error_code=code, error=one_line, **fields)

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
