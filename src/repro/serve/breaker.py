"""Circuit breaker guarding the parallel execution substrate.

The service's slow path is the :class:`~repro.parallel.pool.WorkerPool`.
When worker processes start crashing (``error[worker]``), retrying every
request through the same broken pool multiplies the damage; the breaker
converts "repeated :class:`~repro.resilience.errors.WorkerCrash`" into a
mode switch instead:

``closed``
    Normal operation; jobs run through the pool.
``open``
    Tripped after :attr:`threshold` consecutive crashes.  Jobs run on
    the degradation path — serial execution, no pool, the same
    :func:`~repro.resilience.degrade.resilient_msm` kernels — for
    :attr:`cooldown_s` seconds.
``half-open``
    Cooldown over: the next job probes the pool again; success closes
    the breaker, another crash re-opens it.

The clock is injectable so tests (and the deterministic chaos driver)
can step time instead of sleeping.
"""

from __future__ import annotations

import time

from repro.context import RUN

__all__ = ["CircuitBreaker"]


class CircuitBreaker:
    """Consecutive-failure breaker with a cooldown probe."""

    def __init__(self, threshold=3, cooldown_s=1.0, clock=time.monotonic):
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {threshold}")
        self.threshold = threshold
        self.cooldown_s = cooldown_s
        self._clock = clock
        self._failures = 0
        self._opened_at = None
        self._probing = False
        self.trips = 0

    @property
    def state(self):
        if self._opened_at is None:
            return "closed"
        if self._clock() - self._opened_at >= self.cooldown_s:
            return "half-open"
        return "open"

    def allow_pool(self):
        """Whether the next job may use the worker pool.

        ``closed`` always allows; ``open`` never does; ``half-open``
        admits exactly one probe at a time (concurrent jobs during the
        probe stay degraded until the probe reports back).
        """
        state = self.state
        if state == "closed":
            return True
        if state == "half-open" and not self._probing:
            self._probing = True
            return True
        return False

    def record_success(self):
        """A pool-executed job finished: close the breaker."""
        if self._opened_at is not None or self._failures:
            m = RUN.metrics
            if m is not None:
                m.set_gauge("repro_serve_breaker_open", 0)
        self._failures = 0
        self._opened_at = None
        self._probing = False

    def record_failure(self):
        """A pool-executed job died with a ``WorkerCrash``; returns True
        when this failure tripped (or re-tripped) the breaker."""
        self._probing = False
        self._failures += 1
        if self._failures < self.threshold and self._opened_at is None:
            return False
        tripped = self._opened_at is None
        self._opened_at = self._clock()
        if tripped:
            self.trips += 1
            m = RUN.metrics
            if m is not None:
                m.inc("repro_serve_breaker_trips_total")
                m.set_gauge("repro_serve_breaker_open", 1)
        return tripped

    def to_dict(self):
        return {"state": self.state, "threshold": self.threshold,
                "cooldown_s": self.cooldown_s, "trips": self.trips,
                "consecutive_failures": self._failures}
