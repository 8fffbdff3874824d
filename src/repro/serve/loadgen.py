"""Open-loop load generator and latency report for the proving service.

:func:`run_loadtest` drives a running :class:`~repro.serve.service.ProvingService`
with a **fixed** request schedule — request *i* of a ``--rps R`` run is
issued at ``start + i/R`` regardless of how many earlier requests have
resolved.  Open-loop generation is the honest way to load a bounded
service: a closed loop would slow its own arrival rate exactly when the
service saturates, hiding the queueing collapse (and the shedding) the
admission layer exists to handle.

The generator is fully seeded — the prove/verify interleaving and the
choice of poisoned verify payloads replay bit-identically for one seed —
so the chaos-under-load suite can assert on exact request stories.

:class:`LoadReport` aggregates the terminal
:class:`~repro.serve.jobs.JobResult`\\ s into the latency/throughput/
shed-rate summary the CLI prints, and renders the ledger record's
``service`` block (:meth:`LoadReport.to_service_block`; record shape in
:mod:`repro.obs.ledger`).
"""

from __future__ import annotations

import asyncio
import math
import random
import time

from repro.resilience.errors import AdmissionError, ReproError, classify
from repro.serve.jobs import PHASES, JobResult

__all__ = ["LoadReport", "parse_mix", "run_loadtest"]

#: Default traffic mix: equal parts proving and verification.
DEFAULT_MIX = {"prove": 1, "verify": 1}


def parse_mix(text):
    """Parse a ``--mix`` spec into ``{kind: weight}``.

    Accepts ``prove:verify`` (equal weights), ``prove=3,verify=1``,
    ``prove`` (single-kind), and colon/comma separation interchangeably.
    """
    if not text or not text.strip():
        raise ValueError("empty traffic mix")
    mix = {}
    for part in text.replace(":", ",").split(","):
        part = part.strip()
        if not part:
            continue
        kind, _, weight = part.partition("=")
        kind = kind.strip()
        if kind not in ("prove", "verify"):
            raise ValueError(f"unknown request kind {kind!r} in mix "
                             f"(choose prove/verify)")
        try:
            w = int(weight) if weight else 1
        except ValueError:
            raise ValueError(f"bad weight {weight!r} for {kind!r}") from None
        if w < 0:
            raise ValueError(f"negative weight for {kind!r}")
        mix[kind] = mix.get(kind, 0) + w
    if not mix or sum(mix.values()) <= 0:
        raise ValueError(f"traffic mix {text!r} has no positive weight")
    return mix


def percentile(sorted_values, p):
    """Nearest-rank percentile of an ascending list (0.0 when empty).

    The contract, pinned exactly (tests/serve/test_loadgen.py):

    - rank is ``max(1, ceil(p/100 * n))`` — the classic nearest-rank
      definition, with the float product rounded at the 9th decimal so
      binary noise (``0.95 * 20 -> 19.000000000000004``-style) cannot
      shift a rank;
    - 1-sample sets return that sample for every p;
    - 2-sample sets return the *lower* sample for p50 and the upper for
      p95/p99 (nearest-rank takes an actual sample; it never
      interpolates, so tiny result sets are coarse but honest);
    - the empty set returns the 0.0 sentinel — callers that serialize
      distributions carry an explicit ``n`` so a sentinel 0.0 is
      distinguishable from a measured 0.0 (:func:`_dist`).
    """
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(round(p / 100.0 * len(sorted_values), 9)))
    return sorted_values[min(len(sorted_values) - 1, rank - 1)]


def _dist(values):
    """Summary distribution of *values*; ``n`` makes the empty-set
    sentinel explicit: ``n == 0`` means "no samples" and every other
    field is the 0.0 sentinel, not a measurement."""
    values = sorted(values)
    if not values:
        return {"n": 0, "p50": 0.0, "p95": 0.0, "p99": 0.0, "mean": 0.0,
                "max": 0.0}
    return {
        "n": len(values),
        "p50": round(percentile(values, 50), 6),
        "p95": round(percentile(values, 95), 6),
        "p99": round(percentile(values, 99), 6),
        "mean": round(sum(values) / len(values), 6),
        "max": round(values[-1], 6),
    }


class LoadReport:
    """Aggregation of one load run's terminal results."""

    def __init__(self, rps, duration_s, mix, seed, results, wall_s,
                 depth_samples, stats):
        self.rps = rps
        self.duration_s = duration_s
        self.mix = dict(mix)
        self.seed = seed
        self.results = list(results)
        self.wall_s = wall_s
        self.depth_samples = list(depth_samples)
        self.stats = stats

    # -- derived ------------------------------------------------------------------

    @property
    def sent(self):
        return len(self.results)

    def count(self, status):
        return sum(1 for r in self.results if r.status == status)

    @property
    def ok(self):
        return self.count("ok")

    @property
    def rejected(self):
        """Verify requests the service *answered* with accepted=False —
        service success, invalid proof."""
        return sum(1 for r in self.results
                   if r.status == "ok" and r.accepted is False)

    @property
    def unresolved(self):
        """Requests that broke the typed-resolution contract (must be 0)."""
        return [r for r in self.results if not r.resolved_typed]

    def error_codes(self):
        codes = {}
        for r in self.results:
            if r.error_code:
                codes[r.error_code] = codes.get(r.error_code, 0) + 1
        return codes

    def _rate(self, n):
        return round(n / self.sent, 6) if self.sent else 0.0

    def phase_breakdown(self):
        """Aggregate per-request phase accounting over every result that
        carries a phase dict (i.e. every request that entered the
        service; client-side sheds are untracked by design).

        Returns ``{"n", "mean_s": {phase: mean}, "share": {phase:
        fraction of tracked mean total}, "max_abs_error_s"}`` where the
        last field is the worst violation of the additive invariant
        (phases sum to ``total_s``) seen in this run.
        """
        tracked = [r for r in self.results if r.phases]
        if not tracked:
            return {"n": 0, "mean_s": {}, "share": {},
                    "max_abs_error_s": 0.0}
        mean_s = {}
        for ph in PHASES:
            mean_s[ph] = round(
                sum(r.phases.get(ph, 0.0) for r in tracked) / len(tracked), 6)
        total = sum(mean_s.values())
        share = {ph: (round(v / total, 4) if total > 0 else 0.0)
                 for ph, v in mean_s.items()}
        max_err = max(abs(r.phase_error()) for r in tracked)
        return {"n": len(tracked), "mean_s": mean_s, "share": share,
                "max_abs_error_s": round(max_err, 9)}

    def to_service_block(self):
        """The ledger record's ``service`` block (:mod:`repro.obs.ledger`)."""
        ok_lat = [r.total_s for r in self.results if r.status == "ok"]
        ok_wait = [r.queue_wait_s for r in self.results if r.status == "ok"]
        depths = self.depth_samples or [0]
        counts = self.stats.get("counts", {})
        return {
            "rps_target": self.rps,
            "duration_s": self.duration_s,
            "mix": dict(self.mix),
            "seed": self.seed,
            "wall_s": round(self.wall_s, 6),
            "workers": self.stats.get("workers", 1),
            "max_queue": self.stats.get("max_queue"),
            "max_inflight": self.stats.get("max_inflight"),
            "requests": {
                "sent": self.sent,
                "ok": self.ok,
                "rejected": self.rejected,
                "shed": self.count("shed"),
                "timeout": self.count("timeout"),
                "error": self.count("error"),
                "unresolved": len(self.unresolved),
            },
            "error_codes": self.error_codes(),
            "latency_s": _dist(ok_lat),
            "queue_wait_s": _dist(ok_wait),
            "throughput_rps": (round(self.ok / self.wall_s, 6)
                               if self.wall_s > 0 else 0.0),
            "shed_rate": self._rate(self.count("shed")),
            "timeout_rate": self._rate(self.count("timeout")),
            "error_rate": self._rate(self.count("error")),
            "queue_depth": {
                "mean": round(sum(depths) / len(depths), 3),
                "max": max(depths),
            },
            "retries": counts.get("retries", 0),
            "degraded": counts.get("degraded", 0),
            "verify": {
                "batches": counts.get("verify_batches", 0),
                "coalesced": counts.get("verify_coalesced", 0),
                "isolated_bad": counts.get("isolated_bad", 0),
            },
            "breaker": self.stats.get("breaker"),
            "phases": self.phase_breakdown(),
        }

    def render_text(self):
        b = self.to_service_block()
        lat, wait, req = b["latency_s"], b["queue_wait_s"], b["requests"]
        lines = [
            f"loadtest: {self.sent} requests @ {self.rps} rps target "
            f"over {self.wall_s:.2f}s "
            f"(mix {','.join(f'{k}={v}' for k, v in sorted(self.mix.items()))}, "
            f"seed {self.seed}, workers {b['workers']})",
            f"  resolved   ok={req['ok']} rejected={req['rejected']} "
            f"shed={req['shed']} timeout={req['timeout']} "
            f"error={req['error']} unresolved={req['unresolved']}",
            f"  throughput {b['throughput_rps']:.2f} ok/s   "
            f"shed_rate {b['shed_rate']:.1%}  "
            f"timeout_rate {b['timeout_rate']:.1%}  "
            f"error_rate {b['error_rate']:.1%}",
            f"  latency    p50={lat['p50'] * 1e3:.1f}ms "
            f"p95={lat['p95'] * 1e3:.1f}ms p99={lat['p99'] * 1e3:.1f}ms "
            f"max={lat['max'] * 1e3:.1f}ms",
            f"  queue      wait p95={wait['p95'] * 1e3:.1f}ms  "
            f"depth mean={b['queue_depth']['mean']:.1f} "
            f"max={b['queue_depth']['max']}",
            f"  resilience retries={b['retries']} degraded={b['degraded']} "
            f"breaker={b['breaker']['state'] if b['breaker'] else 'n/a'} "
            f"(trips {b['breaker']['trips'] if b['breaker'] else 0})",
            f"  verify     batches={b['verify']['batches']} "
            f"coalesced={b['verify']['coalesced']} "
            f"isolated_bad={b['verify']['isolated_bad']}",
        ]
        ph = b["phases"]
        if ph["n"]:
            parts = " ".join(f"{name}={ph['mean_s'][name] * 1e3:.1f}ms"
                             for name in PHASES
                             if ph["mean_s"].get(name, 0.0) > 0)
            lines.append(f"  phases     {parts or 'n/a'} "
                         f"(n={ph['n']}, max|err|="
                         f"{ph['max_abs_error_s'] * 1e3:.3f}ms)")
        if b["error_codes"]:
            codes = " ".join(f"{k}={v}"
                             for k, v in sorted(b["error_codes"].items()))
            lines.append(f"  error codes {codes}")
        return "\n".join(lines)


async def run_loadtest(service, rps, duration_s, mix=None, seed=0,
                       deadline_s=None, bad_verify_pct=0.0, stop=None):
    """Drive *service* open-loop and return a :class:`LoadReport`.

    ``bad_verify_pct`` (0..100) poisons that share of verify requests
    with a wrong public input — a parseable payload whose proof must be
    *rejected*, exercising batch-verify bisection under load.  Shed
    requests (:class:`AdmissionError` at submit) resolve client-side
    immediately; everything admitted resolves through the service.

    *stop* (an ``asyncio.Event``) aborts the remaining arrival schedule
    when set — the SIGTERM-drain path of the ``serve`` verb: already
    admitted requests still resolve and land in the report.
    """
    if rps <= 0:
        raise ValueError(f"rps must be > 0, got {rps}")
    if duration_s <= 0:
        raise ValueError(f"duration must be > 0, got {duration_s}")
    mix = dict(mix) if mix else dict(DEFAULT_MIX)
    kinds = sorted(k for k, w in mix.items() if w > 0)
    weights = [mix[k] for k in kinds]
    rng = random.Random(f"loadtest:{seed}")
    n = max(1, int(round(rps * duration_s)))
    loop = asyncio.get_running_loop()
    results, pending, depth_samples = [], [], []
    done = asyncio.Event()

    async def sample_depth():
        while not done.is_set():
            depth_samples.append(service.queue_depth)
            try:
                await asyncio.wait_for(done.wait(), 0.02)
            except asyncio.TimeoutError:
                continue

    sampler = loop.create_task(sample_depth())
    start = loop.time()
    wall_start = time.perf_counter()
    for i in range(n):
        if stop is not None and stop.is_set():
            break
        delay = (start + i / rps) - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        kind = rng.choices(kinds, weights=weights)[0]
        payload = None
        if kind == "verify":
            bad = rng.random() * 100.0 < bad_verify_pct
            payload = service.verify_payload(bad=bad)
        try:
            fut = service.submit_nowait(kind, deadline_s=deadline_s,
                                        payload=payload)
        except AdmissionError as exc:
            results.append(JobResult(
                request_id=-(i + 1), kind=kind, status="shed",
                error_code=exc.code, error=exc.one_line()))
        except ReproError as exc:
            # e.g. a corrupt payload rejected at admission.
            results.append(JobResult(
                request_id=-(i + 1), kind=kind, status="error",
                error_code=classify(exc), error=exc.one_line()))
        else:
            pending.append(fut)
    if pending:
        results.extend(await asyncio.gather(*pending))
    done.set()
    await sampler
    wall_s = time.perf_counter() - wall_start
    return LoadReport(rps=rps, duration_s=duration_s, mix=mix, seed=seed,
                      results=results, wall_s=wall_s,
                      depth_samples=depth_samples, stats=service.stats())
