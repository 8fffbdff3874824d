"""The run context: every ambient instrument of a run, in one object.

The paper's instruments (VTune, ``perf``, DynamoRIO) cost nothing when
detached.  Here "detached" is a ``None`` in a field of :data:`RUN`, and a
site deep in a kernel pays one global load, one attribute load and an
``is None`` test::

    t = RUN.tracer
    if t is not None:
        t.op("bigint_mul", limbs)

A region of the tracer's tree is opened the same way from every stage
body, traced or not, through :func:`region`: it is the tracer's region
when one is installed and a shared no-op context otherwise.

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

from collections import Counter
from contextlib import contextmanager, nullcontext

__all__ = ["RUN", "RunContext", "Tally", "charge", "region", "scoped", "untraced"]


class RunContext:
    """One slot per instrument; ``None`` means it is detached."""

    __slots__ = (
        "tracer",    # repro.perf.trace.Tracer; keeps traced runs serial (no pool);
                     # detached around a charged site's value
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
    it the scope shadows the outer value instead (a nested deadline).
    """
    previous = getattr(RUN, field)
    if busy is not None and previous is not None:
        raise busy
    setattr(RUN, field, value)
    try:
        yield value
    finally:
        setattr(RUN, field, previous)


_NO_REGION = nullcontext()


def region(name, **kw):
    """``RUN.tracer.region(name, **kw)`` when a tracer is installed, else a
    shared no-op context: a body opens its region in one ``with`` line."""
    t = RUN.tracer
    if t is None:
        return _NO_REGION
    return t.region(name, **kw)


def untraced(fn, *args):
    """``fn(*args)`` with the tracer detached: the value of a site that
    charges its reference (docs/KERNELS.md, "Charging a reference")."""
    if RUN.tracer is None:
        return fn(*args)
    with scoped("tracer", None):
        return fn(*args)


class Tally(Counter):
    """A ``Counter`` that takes a tracer's reports, to read a formula's."""

    def op(self, prim, n=1):
        self[prim] += n


def charge(t, cost, n=1):
    """Report *n* times the primitives of the tally *cost* to *t*."""
    if n:
        for prim, k in cost.items():
            t.op(prim, k * n)
