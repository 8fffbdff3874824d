"""Retry, backoff and deadline machinery for stage execution.

:class:`RetryPolicy` is exponential backoff with **deterministic** seeded
jitter — two runs with the same seed sleep the same schedule, keeping
chaos runs reproducible.  :class:`Deadline` is a cooperative per-stage
time budget: the hot kernels (MSM window loop, NTT transforms) poll
``RUN.deadline`` between parallel passes, so a stage that blows its
budget raises :class:`~repro.resilience.errors.StageTimeout` from inside
the work rather than being silently awaited forever.

:class:`ResiliencePolicy` binds the two and is what ``Workflow`` is given
(``Workflow(..., policy=)``): without one the workflow runs each stage
body once; with one, every stage runs under
:meth:`ResiliencePolicy.execute_stage` — fault-site check, deadline
scope, retry loop, and a terminal
:class:`~repro.resilience.errors.StageError` wrap.
"""

from __future__ import annotations

import random
import time

from repro.context import RUN, scoped
from repro.resilience.errors import StageError, StageTimeout, is_retryable

__all__ = [
    "Deadline",
    "ResiliencePolicy",
    "RetryPolicy",
    "deadline_scope",
    "with_retry",
]


class RetryPolicy:
    """Exponential backoff with seeded full jitter.

    ``delay(attempt)`` for the 1-based failed attempt is
    ``min(max_delay, base_delay * 2**(attempt-1)) * U`` with ``U`` drawn
    from ``[1 - jitter, 1]`` by a :class:`random.Random` seeded at
    construction — deterministic, yet desynchronized across stages.
    """

    def __init__(self, max_attempts=3, base_delay=0.01, max_delay=1.0,
                 jitter=0.5, seed=0, sleep=time.sleep):
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        self.max_attempts = max_attempts
        self.base_delay = base_delay
        self.max_delay = max_delay
        self.jitter = jitter
        self._rng = random.Random(f"retry:{seed}")
        self._sleep = sleep

    def delay(self, attempt):
        raw = min(self.max_delay, self.base_delay * (2 ** (attempt - 1)))
        return raw * (1.0 - self.jitter * self._rng.random())

    @property
    def sleeps(self):
        """False when built with ``sleep=None`` — callers that wait
        asynchronously (the serving layer) skip the wait entirely then,
        mirroring what :meth:`backoff` does for synchronous callers."""
        return self._sleep is not None

    def backoff(self, attempt):
        """Sleep the computed delay (no-op when constructed with
        ``sleep=None``, as the test suite and chaos CLI do)."""
        d = self.delay(attempt)
        if self._sleep is not None and d > 0:
            self._sleep(d)
        return d


#: Policy used when ``with_retry`` is called bare.
DEFAULT_POLICY = RetryPolicy()


def with_retry(fn, policy=None, label="call"):
    """Run ``fn()`` under *policy*, re-attempting retryable taxonomy
    faults; the last failure propagates unchanged."""
    policy = policy or DEFAULT_POLICY
    m = RUN.metrics
    for attempt in range(1, policy.max_attempts + 1):
        try:
            return fn()
        except Exception as exc:
            if not is_retryable(exc) or attempt == policy.max_attempts:
                if m is not None:
                    m.inc("repro_resilience_giveups_total")
                raise
            if m is not None:
                m.inc("repro_resilience_retries_total")
            policy.backoff(attempt)


class Deadline:
    """Cooperative time budget: ``check()`` raises ``StageTimeout`` once
    ``seconds`` have elapsed since construction."""

    __slots__ = ("stage", "seconds", "started")

    def __init__(self, seconds, stage=None, clock=time.monotonic):
        self.stage = stage
        self.seconds = seconds
        self.started = clock()

    def elapsed(self, clock=time.monotonic):
        return clock() - self.started

    def expired(self):
        return self.elapsed() > self.seconds

    def check(self):
        elapsed = self.elapsed()
        if elapsed > self.seconds:
            m = RUN.metrics
            if m is not None:
                m.inc("repro_resilience_deadline_expirations_total")
            raise StageTimeout(
                f"stage {self.stage!r} exceeded its {self.seconds:.3f}s deadline "
                f"({elapsed:.3f}s elapsed)",
                stage=self.stage, deadline_s=self.seconds, elapsed_s=elapsed,
            )


def deadline_scope(seconds, stage=None):
    """Install a :class:`Deadline` as ``RUN.deadline`` (nested scopes keep
    the tighter—outer—deadline visible again on exit); ``None`` seconds
    leaves the current one in place."""
    return scoped("deadline", Deadline(seconds, stage=stage)
                  if seconds is not None else RUN.deadline)


class ResiliencePolicy:
    """What the workflow consults per stage: a retry policy plus optional
    per-stage deadline seconds (``{stage: seconds}``; ``None`` key absent
    means no deadline for that stage)."""

    def __init__(self, retry=None, deadlines=None):
        self.retry = retry or RetryPolicy()
        self.deadlines = dict(deadlines or {})

    def execute_stage(self, stage, impl):
        """Run one stage body under fault check + deadline + retry; a
        terminal failure raises :class:`StageError` with the underlying
        taxonomy fault chained."""
        last = None
        attempts = 0
        m = RUN.metrics
        for attempt in range(1, self.retry.max_attempts + 1):
            attempts = attempt
            try:
                with deadline_scope(self.deadlines.get(stage), stage=stage) as dl:
                    if RUN.faults is not None:
                        RUN.faults.check(f"stage:{stage}")
                    artifact = impl()
                    # Post-hoc enforcement for stages whose body never
                    # reaches a cooperative poll point.
                    if dl is not None and dl.stage == stage:
                        dl.check()
                    return artifact
            except Exception as exc:
                last = exc
                if not is_retryable(exc):
                    break
                if attempt < self.retry.max_attempts:
                    if m is not None:
                        m.inc("repro_resilience_retries_total")
                        m.inc(f"repro_resilience_stage_{stage}_retries_total")
                    self.retry.backoff(attempt)
        if m is not None:
            m.inc("repro_resilience_giveups_total")
        raise StageError(stage, last, attempts=attempts) from last
