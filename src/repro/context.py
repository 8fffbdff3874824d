"""The run context: every ambient instrument of a run, in one object.

The paper's instruments (VTune, ``perf``, DynamoRIO) cost nothing when
detached.  Here "detached" is a ``None`` in a field of :data:`RUN`, and a
site deep in a kernel pays one global load, one attribute load and an
``is None`` test::

    t = RUN.tracer
    if t is not None:
        t.op("bigint_mul", limbs)

:func:`scoped` is the only writer besides :meth:`RunContext.clear`, which
is all a forked worker does on entry.  The public installers (``tracing``,
``collecting``, ``recording``, ``collecting_tasks``, ``using``,
``injecting``, ``deadline_scope``) are calls to it, each with its own
nesting rule.  docs/ARCHITECTURE.md ("Run context") has the field table
and why this is a plain object rather than a property or a context
variable.  This module imports nothing from :mod:`repro`, so the
arithmetic core imports it and nothing else to be instrumented.
"""

from __future__ import annotations

from contextlib import contextmanager

__all__ = ["RUN", "RunContext", "scoped"]


class RunContext:
    """One slot per instrument; ``None`` means it is detached."""

    __slots__ = (
        "tracer",    # repro.perf.trace.Tracer; also pins kernels to the reference route
        "metrics",   # repro.obs.metrics.MetricsRegistry
        "spans",     # repro.obs.spans.SpanRecorder
        "tasks",     # repro.obs.worker.WorkerTelemetry
        "pool",      # repro.parallel.pool.WorkerPool
        "faults",    # repro.resilience.faults.FaultInjector
        "deadline",  # repro.resilience.retry.Deadline
    )

    def __init__(self):
        self.clear()

    def clear(self):
        """Detach everything: the parent owns telemetry, workers compute."""
        for name in self.__slots__:
            setattr(self, name, None)


RUN = RunContext()


@contextmanager
def scoped(field, value, busy=None):
    """Set ``RUN.<field>`` to *value* for the duration and yield *value*;
    the previous value is restored on exit, also when the body raises.

    *busy* is the exception raised when the field is already set: two live
    tracers or registries would split the counts between them.  Without
    it the scope shadows the outer value instead (a nested deadline, the
    serial backend hiding the pool from the task it runs inline).
    """
    previous = getattr(RUN, field)
    if busy is not None and previous is not None:
        raise busy
    setattr(RUN, field, value)
    try:
        yield value
    finally:
        setattr(RUN, field, previous)
