"""The four workloads and their untraced (end-to-end) runs.

Every workload has a *primary* operation and a *secondary* one, run in
interleaved rounds for ``--seconds`` so that a drift of the machine hits
both alike; the end-to-end metrics have one definition for all four:

============  ================================================================
``setup_s``   wall from workload start to ready-to-time
``op_s``      median wall of one primary operation
``op_cpu_s``  median CPU seconds of one primary operation, pool workers included
``op2_s``     median wall of one secondary operation
``peak_rss_mb``  peak resident set of the process plus its live workers
============  ================================================================

What the operations are is the workload's own business (:data:`WORKLOADS`).
Timed regions hold nothing but the call being timed; every correctness
check runs outside them and is counted in ``attempted`` / ``failed``.  All
times are seconds at reference speed (``calibrate.py``): a calibration stop
follows every timed call (on the serving workload every segment, and the run
has one speed), and the raw samples are kept in the detail.

The same round functions serve the traced pass (``layers.py``), which only
installs wrappers around them — so both passes run the same program on the
same keys.
"""

from __future__ import annotations

import asyncio
import contextlib
import multiprocessing
import random
import resource
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import calibrate  # noqa: E402
import loadgen  # noqa: E402
import stats  # noqa: E402

# Looked up through their namespaces at call time, so that the traced pass
# can rebind them (tracing.TARGETS).
import repro.groth16 as g16  # noqa: E402
import repro.groth16.batch as g16_batch  # noqa: E402
import repro.groth16.serialize as g16_ser  # noqa: E402
from repro import parallel  # noqa: E402
from repro.circuit import compiler  # noqa: E402
from repro.curves import get_curve  # noqa: E402
from repro.harness.circuits import build_exponentiate  # noqa: E402

__all__ = [
    "MIN_ROUNDS",
    "Outcome",
    "Spec",
    "WORKLOADS",
    "make_workload",
    "run_untraced",
    "timed_rounds",
]

#: Fewest timed rounds behind any median, however short ``--seconds`` is.
MIN_ROUNDS = 7

#: Open-loop rates of the serving workload: ``paced`` sits below the knee
#: (about 4 requests/s uncoalesced at size 64), ``sat`` well above it.
PACED_RPS = 2.5
SAT_RPS = 12.0
#: A phase offers its requests in short segments, each run until all have
#: resolved, with a calibration stop between segments — so that no loop ever
#: runs while a request is in flight, and the run has loops from all through
#: it.  ``paced``: one block of the request mix, 1.2 s;
#: ``sat``: one second of offering, and one goodput sample per segment.
PACED_SEGMENT = 3
SAT_SEGMENT = 12
#: ``sat`` segments per second of ``--seconds``.
SAT_SEGMENTS_PER_SECOND = 0.6
#: Latency limit of the ``paced`` phase (``slo_miss_share``).
SLO_S = 1.0
#: How far a request's phases may differ from its total and still be
#: straight bookkeeping.  The service stamps ``total_s`` a few statements
#: before it closes the phase clock, so a pause of the process between the
#: two (the collector, the host taking the core) is in the phases and not in
#: the total: that is the machine, not the program.  The service's own 1 ms
#: was passed by one request in some 2500 on a shared host, which failed the
#: run; a phase lost or counted twice at this size is a compute or queue
#: phase of 0.1 s and more.  The largest difference seen is kept in the
#: detail (``phase_error_max_s``).
PHASE_SLACK_S = 0.05


@dataclass(frozen=True)
class Spec:
    name: str
    kind: str  # prove | pool | verify | serve
    curve: str
    size: int
    workers: int = 1
    #: What the generic metrics are on this workload, for people.
    reads: dict = field(default_factory=dict)


WORKLOADS = {
    s.name: s for s in (
        Spec("prove-bn128-2048", "prove", "bn128", 2048, reads={
            "op_s": "prove_s: one serial prove",
            "op_cpu_s": "prove_cpu_s",
            "op2_s": "bytes-in verify of the fresh proof (BN128)"}),
        Spec("pool-bls12_381-1024-w2", "pool", "bls12_381", 1024, workers=2, reads={
            "op_s": "prove_s: one prove under the 2-worker pool",
            "op_cpu_s": "prove_cpu_s, parent + workers",
            "op2_s": "the serial twin of the same prove (op2_s / op_s = pool_speedup)"}),
        Spec("verify-bls12_381-64", "verify", "bls12_381", 64, reads={
            "op_s": "verify_s: bytes -> proof_from_bytes -> verify",
            "op_cpu_s": "CPU of the same",
            "op2_s": "batch_verify_s: bytes-in batch_verify of 8, per proof"}),
        Spec("serve-bn128-64", "serve", "bn128", 64, reads={
            "op_s": "serve_p50_s: paced latency from due time, median",
            "op_cpu_s": "process CPU per paced request",
            "op2_s": "sat: seconds per ok result (1 / serve_goodput_rps)"}),
    )
}


class Outcome:
    """What one run found: checks counted, timed samples, final metrics."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []
        #: ``op`` / ``op_cpu`` / ``op2`` -> seconds at reference speed, one
        #: entry per timed call (already per item: 1/8 of a batch of 8), and
        #: the same as measured.
        self.samples = defaultdict(list)
        self.raw = defaultdict(list)
        self.metrics = {}
        self.detail = {}

    def check(self, ok, what):
        """Count one operation or check; a failure is kept by description."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok

    def absorb_checks(self, other):
        self.attempted += other.attempted
        self.failed += other.failed
        self.failures.extend(other.failures)

    @property
    def correct(self):
        return self.failed == 0

    def timed(self, name, seconds, speed=1.0):
        self.raw[name].append(seconds)
        self.samples[name].append(seconds * speed)

    def rescale(self, speed):
        """Every sample as measured times one *speed* for the whole run."""
        self.samples = {k: [x * speed for x in v] for k, v in self.raw.items()}

    def timing_metrics(self):
        """The three timing metrics from the samples."""
        return {
            "op_s": stats.median(self.samples["op"]),
            "op_cpu_s": stats.median(self.samples["op_cpu"]),
            "op2_s": stats.median(self.samples["op2"]),
        }

    def keep_samples(self, loops):
        self.detail["counts"] = {k: len(v) for k, v in self.samples.items()}
        for key, samples in (("samples", self.samples), ("raw", self.raw)):
            self.detail[key] = {k: [round(x, 6) for x in v] for k, v in samples.items()}
        self.detail["loops"] = [round(x, 6) for x in loops]
        self.detail["machine_speed"] = calibrate.speed(loops)


def peak_rss_mib():
    """Peak resident set of this process plus its live children (the pool's
    workers — read it before closing the pool), in MiB."""
    total_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for child in multiprocessing.active_children():
        try:
            with open(f"/proc/{child.pid}/status") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        total_kib += int(line.split()[1])
                        break
        except OSError:
            pass
    return total_kib / 1024.0


def _cpu_now(pool=None):
    """CPU seconds burned so far by this process and *pool*'s workers (live
    workers are not in ``RUSAGE_CHILDREN``; the pool's own per-task
    accounting is)."""
    cpu = time.process_time()
    if pool is not None:
        cpu += sum(w["cpu_s"] for w in pool.worker_stats.values())
    return cpu


def _prove_rng(seed, i):
    return random.Random(f"bench:{seed}:prove:{i}")


class Workload:
    def __init__(self, spec, seed):
        self.spec = spec
        self.seed = seed
        self.curve = get_curve(spec.curve)
        #: Every calibration loop of the run, and those of the latest stop.
        self.loops = []
        self.calibrate()

    def calibrate(self):
        """One calibration stop; returns the machine speed between the
        previous stop and this one."""
        before = self.loops[-2:]
        self.loops += calibrate.stop()
        return calibrate.speed(before + self.loops[-2:])


# -- the three Groth16 workloads -----------------------------------------------------


class G16Workload(Workload):
    """Shared set-up of the prove, pool and verify workloads."""

    def __init__(self, spec, seed):
        super().__init__(spec, seed)
        self.pool = None
        self.pool_start_s = 0.0
        self.proofs = []
        #: Context factory around the part of a round the traced pass may
        #: trace; ``layers.py`` swaps its wrappers in for the traced rounds.
        self.trace = contextlib.nullcontext

    def start_pool(self):
        """Fork the workers.  Its own step, ahead of :meth:`prepare`: the
        traced pass installs its wrappers only afterwards, so that the
        workers keep the program's own functions for life."""
        if self.spec.workers > 1:
            t0 = time.perf_counter()
            self.pool = parallel.WorkerPool(self.spec.workers)
            self.pool.map("selftest_square",
                          [{"x": i} for i in range(2 * self.spec.workers)])
            self.pool_start_s = time.perf_counter() - t0

    def prepare(self):
        """Everything else before the first round: circuit, keys, witness."""
        spec, curve = self.spec, self.curve
        # x uniform in Fr, so the witness scalars are full-width.
        x = random.Random(f"bench:{self.seed}:x").randrange(2, curve.fr.modulus)
        builder, inputs = build_exponentiate(curve, spec.size, x)
        self.circuit = compiler.compile_circuit(builder)
        with parallel.using(self.pool):
            self.pk, self.vk = g16.setup(
                curve, self.circuit, random.Random(f"bench:{self.seed}:setup"))
            self.witness = g16.generate_witness(self.circuit, inputs)
        self.publics = g16.public_inputs(self.circuit, self.witness)
        self.bad_publics = [(self.publics[0] + 1) % curve.fr.modulus]

    def setup_seconds(self, t_start):
        """``setup_s``: *t_start* to now, by the run's first stop (taken as
        the workload was made) and one taken now."""
        ready = time.perf_counter()
        self.calibrate()
        return (ready - t_start) * calibrate.speed(self.loops[:2] + self.loops[-2:])

    def measure(self, out, name, fn, share=1.0):
        """``fn()`` timed (wall, and CPU with the pool's workers) into
        *out* under *name*, then one calibration stop; *share* turns the
        call into a per-item time."""
        c0 = _cpu_now(self.pool)
        t0 = time.perf_counter()
        result = fn()
        t1 = time.perf_counter()
        cpu = _cpu_now(self.pool) - c0
        speed = self.calibrate()
        out.timed(name, (t1 - t0) * share, speed)
        out.timed(f"{name}_cpu", cpu * share, speed)
        return result

    def round(self, i, out):
        raise NotImplementedError

    def warm_up(self, out):
        """One untimed round: fills the lazy tables (GLV parameters, pairing
        engines, domain roots).  Its checks count, its samples do not."""
        self.round(-1, out)

    def final_checks(self, out):
        """Untimed: what the rounds themselves did not check."""
        out.check(
            g16.verify(self.vk, self.proofs[0], self.bad_publics) is False,
            "proof against a wrong public input rejected")

    def close(self):
        if self.pool is not None:
            self.pool.close()
            self.pool = None


class ProveWorkload(G16Workload):
    """Primary: one serial ``prove``.  Secondary: the bytes-in ``verify`` of
    that proof, which is also its correctness check."""

    def round(self, i, out):
        with self.trace():
            proof = self.measure(out, "op", lambda: g16.prove(
                self.pk, self.circuit, self.witness, _prove_rng(self.seed, i)))
            blob = g16_ser.proof_to_bytes(proof)
            ok = self.measure(out, "op2", lambda: g16.verify(
                self.vk, g16_ser.proof_from_bytes(blob), self.publics))
        out.check(ok is True, f"proof {i} accepted")
        out.detail["proof_bytes"] = len(blob)
        self.proofs = [proof]


class PoolWorkload(G16Workload):
    """Primary: one ``prove`` under the pool.  Secondary: the serial twin
    from the same randomness; the two proofs must be byte-identical.  Only
    the pooled prove is traced, so the layer table is the pooled program's."""

    def round(self, i, out):
        def prove():
            return g16.prove(self.pk, self.circuit, self.witness,
                             _prove_rng(self.seed, i))

        with parallel.using(self.pool), self.trace():
            pooled = self.measure(out, "op", prove)
        serial = self.measure(out, "op2", prove)
        blob = g16_ser.proof_to_bytes(pooled)
        out.check(blob == g16_ser.proof_to_bytes(serial),
                  f"pooled and serial proof {i} byte-identical")
        out.detail["proof_bytes"] = len(blob)
        self.proofs.append(pooled)

    def final_checks(self, out):
        """The serial twins are only compared, never verified: one folded
        check over every pooled proof stands in for all of them."""
        out.check(
            g16_batch.batch_verify(
                self.vk, [(p, self.publics) for p in self.proofs],
                random.Random(f"bench:{self.seed}:final")) is True,
            "batch of all pooled proofs accepted")
        super().final_checks(out)


class VerifyWorkload(G16Workload):
    """Primary: bytes -> ``proof_from_bytes`` -> ``verify``.  Secondary:
    bytes-in ``batch_verify`` of 8, per proof."""

    BATCH = 8
    SINGLES_PER_ROUND = 3

    def prepare(self):
        super().prepare()
        self.proofs = [
            g16.prove(self.pk, self.circuit, self.witness, _prove_rng(self.seed, j))
            for j in range(self.BATCH)
        ]
        self.blobs = [g16_ser.proof_to_bytes(p) for p in self.proofs]
        # A's bytes of proof 1 spliced into proof 0: every point is a valid
        # subgroup point, the pairing equation no longer holds.
        head = 8  # magic + curve id
        a_len = 2 * self.curve.fq.nbytes
        self.mutated = (self.blobs[0][:head] + self.blobs[1][head:head + a_len]
                        + self.blobs[0][head + a_len:])

    def round(self, i, out):
        with self.trace():
            for j in range(self.SINGLES_PER_ROUND):
                self._single(self.SINGLES_PER_ROUND * i + j, out)
            self._batch(i, out)

    def warm_up(self, out):
        self._single(0, out)
        self._batch(-1, out)

    def _single(self, j, out):
        blob = self.blobs[j % self.BATCH]
        ok = self.measure(out, "op", lambda: g16.verify(
            self.vk, g16_ser.proof_from_bytes(blob), self.publics))
        out.check(ok is True, "valid proof accepted")

    def _batch(self, i, out):
        rng = random.Random(f"bench:{self.seed}:batch:{i}")
        ok = self.measure(out, "op2", lambda: g16_batch.batch_verify(
            self.vk,
            [(g16_ser.proof_from_bytes(b), self.publics) for b in self.blobs],
            rng), share=1.0 / self.BATCH)
        out.check(ok is True, "valid batch accepted")
        out.detail["proof_bytes"] = len(self.blobs[0])

    def final_checks(self, out):
        out.check(self.mutated != self.blobs[0], "mutation changed the bytes")
        out.check(
            g16.verify(self.vk, g16_ser.proof_from_bytes(self.mutated),
                       self.publics) is False,
            "mutated proof rejected")
        poisoned = [(g16_ser.proof_from_bytes(b), self.publics)
                    for b in self.blobs[:-1]]
        poisoned.insert(3, (g16_ser.proof_from_bytes(self.mutated), self.publics))
        out.check(
            g16_batch.batch_verify(
                self.vk, poisoned,
                random.Random(f"bench:{self.seed}:poisoned")) is False,
            "poisoned batch rejected")


def timed_rounds(workload, out, seconds):
    """Run rounds 0, 1, ... for *seconds*, at least :data:`MIN_ROUNDS` of
    them; returns how many ran."""
    end = time.perf_counter() + seconds
    i = 0
    while i < MIN_ROUNDS or time.perf_counter() < end:
        workload.round(i, out)
        i += 1
    return i


def warm_up(workload, out):
    scratch = Outcome()
    workload.warm_up(scratch)
    out.absorb_checks(scratch)


def _run_g16(workload, seconds, t_start):
    out = Outcome()
    try:
        workload.start_pool()
        workload.prepare()
        warm_up(workload, out)
        setup_s = workload.setup_seconds(t_start)
        timed_rounds(workload, out, seconds)
        out.metrics = {"setup_s": setup_s, **out.timing_metrics(),
                       "peak_rss_mb": peak_rss_mib()}
        workload.final_checks(out)
    finally:
        workload.close()
    return out


# -- the serving workload ------------------------------------------------------------


class ServeWorkload(Workload):
    """In-process ``ProvingService``; primary: one request of the ``paced``
    open loop, latency from its due time.  Secondary: the ``sat`` phase on a
    second service instance (pk-cache hit), as seconds per ok result.

    The process sleeps while its requests are computed, so the loops of its
    stops are a mix (``calibrate.quiet_speed``): the samples are kept as
    measured and the whole run is scaled by one speed at its end."""

    def __init__(self, spec, seed):
        super().__init__(spec, seed)
        self.depths = []
        self.start_cold_s = self.start_warm_s = 0.0
        self.service = None
        self.stats = []

    def _service(self):
        from repro.serve import ProvingService

        return ProvingService(
            curve=self.spec.curve, size=self.spec.size, workers=None,
            max_queue=128, max_inflight=256, seed=self.seed)

    async def start(self, out):
        """Cold start (compile, setup, witness, sample proof) plus one
        awaited request of each kind."""
        self.service = self._service()
        t0 = time.perf_counter()
        await self.service.start()
        self.start_cold_s = time.perf_counter() - t0
        self.proof_bytes = self.service.verify_payload()[0].size_bytes()
        warm = await loadgen.open_loop(self.service, ["prove", "verify"], 1000.0)
        self.judge(out, "warm-up", warm)

    async def restart_warm(self):
        """Drain and start a second instance of the same cell."""
        await self.stop()
        self.service = self._service()
        t0 = time.perf_counter()
        await self.service.start()
        self.start_warm_s = time.perf_counter() - t0

    async def stop(self):
        if self.service is not None:
            self.stats.append(self.service.stats())
            await self.service.drain()
            self.service = None

    async def _segments(self, out, phase, segments, size, rps):
        """Offer *segments* times *size* requests of *phase* at *rps*; yields
        ``(samples, process CPU seconds)`` per segment.  The request sequence
        depends on the seed alone."""
        kinds = loadgen.kinds_for(self.seed, phase, segments * size)
        self.calibrate()
        for i in range(segments):
            c0 = time.process_time()
            samples = await loadgen.open_loop(
                self.service, kinds[i * size:(i + 1) * size], rps, depths=self.depths)
            cpu = time.process_time() - c0
            self.calibrate()
            self.judge(out, phase, samples)
            yield samples, cpu

    async def paced(self, out, segments):
        """The ``paced`` phase: each latency (from the due time) is an
        ``op`` sample, each segment's process CPU per request an ``op_cpu``
        one."""
        sent = []
        async for samples, cpu in self._segments(
                out, "paced", segments, PACED_SEGMENT, PACED_RPS):
            for s in samples:
                out.timed("op", s.latency)
            out.timed("op_cpu", cpu / len(samples))
            sent += samples
        missed = sum(1 for s in sent if not s.ok or s.latency > SLO_S)
        out.detail["slo_miss_share"] = missed / len(sent)
        return sent

    async def sat(self, out, segments):
        """The ``sat`` phase: each segment's wall from its first due time to
        its last resolution, per ok result, is an ``op2`` sample."""
        sent = []
        async for samples, _cpu in self._segments(
                out, "sat", segments, SAT_SEGMENT, SAT_RPS):
            n_ok = sum(1 for s in samples if s.ok)
            wall = max(s.done for s in samples) - samples[0].due
            out.timed("op2", wall / max(n_ok, 1))
            sent += samples
        return sent

    def judge(self, out, phase, samples):
        """Every request must resolve ok, typed, with phases that sum to its
        total (within :data:`PHASE_SLACK_S`); a prove returns a proof of the
        right size, a verify of the service's own proof is accepted."""
        for s in samples:
            r = s.result
            ok = s.ok and r.resolved_typed and r.phases_consistent(PHASE_SLACK_S)
            if ok:
                out.detail["phase_error_max_s"] = max(
                    out.detail.get("phase_error_max_s", 0.0), abs(r.phase_error()))
            if ok and s.kind == "prove":
                ok = r.proof_bytes == self.proof_bytes
            elif ok:
                ok = r.accepted is True
            out.check(ok, f"{phase} {s.kind} request answered: "
                          f"{s.refused or (r.status if r else 'unresolved')}")


def paced_segments(seconds):
    return max(MIN_ROUNDS, round(PACED_RPS * seconds / PACED_SEGMENT))


def sat_segments(seconds):
    return max(MIN_ROUNDS, round(SAT_SEGMENTS_PER_SECOND * seconds))


async def _serve_untraced(workload, seconds, t_start):
    out = Outcome()
    try:
        await workload.start(out)
        setup_s = time.perf_counter() - t_start
        await workload.paced(out, paced_segments(seconds))
        await workload.restart_warm()
        await workload.sat(out, sat_segments(seconds))
        rss = peak_rss_mib()
    finally:
        await workload.stop()
    speed = calibrate.quiet_speed(workload.loops)
    out.rescale(speed)
    out.metrics = {"setup_s": setup_s * speed, **out.timing_metrics(),
                   "peak_rss_mb": rss}
    return out


# -- entry ---------------------------------------------------------------------------

_KINDS = {"prove": ProveWorkload, "pool": PoolWorkload, "verify": VerifyWorkload,
          "serve": ServeWorkload}


def make_workload(name, seed, size=None):
    """Workload *name* on the inputs of *seed*; *size* shrinks the circuit
    for the harness's own tests."""
    spec = WORKLOADS[name]
    if size is not None:
        spec = replace(spec, size=size)
    return _KINDS[spec.kind](spec, seed)


def run_untraced(workload, seconds, t_start):
    """One untraced run of *workload*; the returned outcome's metrics are the
    end-to-end metrics.  *t_start* is when the set-up window opened."""
    if workload.spec.kind == "serve":
        out = asyncio.run(_serve_untraced(workload, seconds, t_start))
    else:
        out = _run_g16(workload, seconds, t_start)
    out.keep_samples(workload.loops)
    return out
