"""Retry, backoff and deadline machinery for stage execution.

:class:`RetryPolicy` is exponential backoff with **deterministic** seeded
jitter — two runs with the same seed sleep the same schedule, keeping
chaos runs reproducible.  :func:`with_retry` is the one retry loop: a
``Workflow`` given ``retry=`` runs each stage attempt through it, and the
chaos driver its serialization round-trip.

:class:`Deadline` is a cooperative time budget: the hot kernels (MSM
window loop, NTT transforms) poll ``RUN.deadline`` between parallel
passes, so a run that blows its budget raises
:class:`~repro.resilience.errors.StageTimeout` from inside the work
rather than being silently awaited forever.
"""

from __future__ import annotations

import random
import time

from repro.context import RUN, scoped
from repro.resilience.errors import StageTimeout, is_retryable

__all__ = [
    "Deadline",
    "RetryPolicy",
    "deadline_scope",
    "with_retry",
]

#: Backoff before the first retry, in seconds (doubled per attempt).
BASE_DELAY = 0.01

#: Ceiling on one backoff, in seconds.
MAX_DELAY = 1.0

#: Share of a delay the seeded jitter may remove.
JITTER = 0.5


class RetryPolicy:
    """Exponential backoff with seeded full jitter.

    ``delay(attempt)`` for the 1-based failed attempt is
    ``min(MAX_DELAY, BASE_DELAY * 2**(attempt-1)) * U`` with ``U`` drawn
    from ``[1 - JITTER, 1]`` by a :class:`random.Random` seeded at
    construction — deterministic, yet desynchronized across stages.
    """

    def __init__(self, max_attempts=3, seed=0, sleep=time.sleep):
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        self.max_attempts = max_attempts
        self._rng = random.Random(f"retry:{seed}")
        self._sleep = sleep

    def delay(self, attempt):
        raw = min(MAX_DELAY, BASE_DELAY * (2 ** (attempt - 1)))
        return raw * (1.0 - JITTER * self._rng.random())

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


def with_retry(fn, policy):
    """Run ``fn()`` under *policy*, re-attempting retryable taxonomy
    faults; the last failure propagates unchanged."""
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

    def __init__(self, seconds, stage=None):
        self.stage = stage
        self.seconds = seconds
        self.started = time.monotonic()

    def elapsed(self):
        return time.monotonic() - self.started

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
