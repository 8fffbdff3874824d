"""Request/result model of the proving service.

Every request the service ever accepts — and every request it refuses —
ends as exactly one :class:`JobResult`, so "no request hangs and none
resolves untyped" is checkable by construction: a result's ``status`` is
one of :data:`STATUSES` and a non-``ok`` result always carries the
taxonomy ``error_code`` behind it (``admission``, ``timeout``, or
another :mod:`repro.resilience.errors` leaf).

Internally a :class:`Job` is the queue-resident form: the asyncio future
the submitter awaits, the admission timestamp the queue-wait and
deadline math hang off, and — for verify requests — the proof/publics
payload the batcher coalesces.

**Phase accounting.**  Every job also carries a phase clock: the service
marks each transition of the request's life (:meth:`Job.mark`) and the
interval since the previous mark is attributed to exactly one of
:data:`PHASES`.  Because the phases partition the request's lifetime by
construction, their sum telescopes to ``total_s`` — the accounting
invariant (:meth:`JobResult.phases_consistent`) then checks that *every*
resolution path of the service (ok, shed, timeout, retried,
coalesced-bisected, drain-flushed) kept the bookkeeping straight, which
is what the phase-breakdown report and the ``pareto`` capacity sweep
stand on.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Optional

__all__ = ["Job", "JobResult", "KINDS", "PHASES", "STATUSES"]

#: Request kinds the service executes.
KINDS = ("prove", "verify")

#: The additive latency phases of one request, in lifecycle order:
#: ``admission`` (submit-time checks), ``queue_wait`` (enqueued, not yet
#: picked up), ``coalesce_delay`` (verify only: dequeued, waiting for the
#: batch window to close), ``retry_backoff`` (async backoff between
#: attempts), ``compute`` (on the compute thread, including the executor
#: hop), ``settle`` (resolution bookkeeping and anything unmarked).
PHASES = ("admission", "queue_wait", "coalesce_delay", "retry_backoff",
          "compute", "settle")

#: Tolerance (seconds) on the phase-accounting invariant: ``total_s`` is
#: read off the closed phase clock, so only float rounding separates it
#: from the phase sum.
PHASE_TOLERANCE_S = 1e-3

#: Every terminal state of a request.  ``ok`` may still mean "proof
#: rejected" for verify requests (see :attr:`JobResult.accepted`) — the
#: *service* worked; the proof was invalid.
STATUSES = ("ok", "shed", "timeout", "error")


@dataclass
class JobResult:
    """The one terminal record of a request's life in the service."""

    request_id: int
    kind: str
    status: str
    #: Taxonomy code (``repro.resilience.errors``) for non-``ok``
    #: statuses; ``None`` on success.
    error_code: Optional[str] = None
    #: The typed one-line rendering (``error[<code>]: ...``) or ``None``.
    error: Optional[str] = None
    #: Verify requests: the verifier's verdict (``None`` for prove).
    accepted: Optional[bool] = None
    #: Prove requests: serialized proof size (``None`` for verify).
    proof_bytes: Optional[int] = None
    #: Seconds from admission to execution start (0 for shed requests).
    queue_wait_s: float = 0.0
    #: Seconds spent executing (all attempts; 0 for shed requests).
    service_s: float = 0.0
    #: Seconds from admission to resolution.
    total_s: float = 0.0
    #: Execution attempts consumed (retries show up here).
    attempts: int = 0
    #: Verify requests resolved through a coalesced batch: batch size.
    batched: int = 0
    #: True when the breaker had tripped and the job ran degraded
    #: (serial, no worker pool).
    degraded: bool = False
    #: Additive latency breakdown (:data:`PHASES` -> seconds).  Empty for
    #: requests that never entered the service (client-side shed results
    #: built by the load generator).
    phases: dict = field(default_factory=dict)
    #: Offset (seconds) of this request's admission on the service's
    #: timeline (``ProvingService`` start) — the trace-export x axis.
    start_s: float = 0.0
    #: Optional worker-side split of the ``compute`` phase, from the
    #: PR 7 telemetry collector when one is installed: ``worker_tasks``,
    #: ``worker_busy_s`` (not part of the additive invariant).
    compute_detail: Optional[dict] = None

    @property
    def resolved_typed(self):
        """The robustness contract: a known status, and errors carry a
        taxonomy code."""
        if self.status not in STATUSES:
            return False
        if self.status == "ok":
            return True
        return bool(self.error_code)

    @property
    def phase_sum(self):
        """Sum of the recorded phase durations (0.0 when untracked)."""
        return sum(self.phases.values())

    def phase_error(self):
        """Signed accounting error: ``phase_sum - total_s``."""
        return self.phase_sum - self.total_s

    def phases_consistent(self, tol=PHASE_TOLERANCE_S):
        """The accounting invariant: recorded phases sum to ``total_s``
        within *tol* (vacuously true for untracked results, whose
        ``total_s`` must then be the 0.0 shed sentinel)."""
        if not self.phases:
            return self.total_s == 0.0
        return abs(self.phase_error()) <= tol

    def to_dict(self):
        return {
            "request_id": self.request_id,
            "kind": self.kind,
            "status": self.status,
            "error_code": self.error_code,
            "error": self.error,
            "accepted": self.accepted,
            "proof_bytes": self.proof_bytes,
            "queue_wait_s": round(self.queue_wait_s, 6),
            "service_s": round(self.service_s, 6),
            "total_s": round(self.total_s, 6),
            "attempts": self.attempts,
            "batched": self.batched,
            "degraded": self.degraded,
            "start_s": round(self.start_s, 6),
            "phases": {k: round(v, 6) for k, v in self.phases.items()},
            "compute_detail": self.compute_detail,
        }


@dataclass
class Job:
    """Queue-resident form of an admitted request."""

    request_id: int
    kind: str
    future: Any  # asyncio.Future[JobResult]
    #: Absolute per-request budget in seconds (None = no deadline).
    deadline_s: Optional[float] = None
    #: perf_counter at admission.
    admitted_ts: float = field(default_factory=time.perf_counter)
    #: Verify payload: (proof, publics); prove jobs carry None.
    payload: Any = None
    #: Set by the service when the job leaves the outstanding count —
    #: exactly once, even if the caller cancelled the future meanwhile.
    accounted: bool = False
    #: Accumulated phase durations (:data:`PHASES` -> seconds).
    phases: dict = field(default_factory=dict)
    #: perf_counter of the previous phase mark (phase-clock cursor);
    #: initialized lazily to ``admitted_ts`` on the first mark.
    phase_cursor: Optional[float] = None

    def mark(self, phase):
        """Attribute the interval since the previous mark (or admission)
        to *phase*; marks accumulate, so a retried request's second
        compute attempt adds to the same ``compute`` bucket."""
        now = time.perf_counter()
        last = self.phase_cursor if self.phase_cursor is not None \
            else self.admitted_ts
        self.phases[phase] = self.phases.get(phase, 0.0) + (now - last)
        self.phase_cursor = now

    def finish_phases(self):
        """Close the phase clock: the tail since the last mark becomes
        ``settle``.  Returns the phase dict (shared, not copied — the
        job is terminal once resolved)."""
        self.mark("settle")
        return self.phases

    def elapsed(self):
        return time.perf_counter() - self.admitted_ts

    def remaining(self):
        """Seconds left on the request deadline (None = unbounded)."""
        if self.deadline_s is None:
            return None
        return self.deadline_s - self.elapsed()

    def expired(self):
        remaining = self.remaining()
        return remaining is not None and remaining <= 0
