"""Runtime telemetry for the real Python process.

Where :mod:`repro.perf` *models* the paper's observation layer (VTune,
``perf``, DynamoRIO) on top of traced primitives, this package observes the
reproduction itself at runtime — actual wall/CPU time, peak-RSS movement and
GC activity per protocol stage, cheap counters on the hot kernels, and a
persistent, machine-fingerprinted ledger of runs so results from different
checkouts and CPUs stay comparable (the discipline behind the paper's
Table I cross-machine comparisons).

Modules
-------
:mod:`repro.obs.spans`
    Hierarchical span API (``with span("proving"): ...``) recording wall
    time, CPU time, peak-RSS delta, GC collections, and attached
    :mod:`repro.perf.trace` counters.
:mod:`repro.obs.metrics`
    Process-global metrics registry — counters, gauges, fixed-boundary
    histograms — that the hot paths (MSM, NTT, field inversions, batch
    verify) increment behind a ``RUN.metrics is None`` guard.
:mod:`repro.obs.fingerprint`
    Machine fingerprint (CPU model, cores, Python) and git revision.
:mod:`repro.obs.ledger`
    The run record of the JSONL run ledger (appended only where
    ``--ledger`` names a file, by :func:`repro.obs.format.append_record`).
:mod:`repro.obs.worker`
    Cross-process worker telemetry: the parent-side collector that the
    :class:`~repro.parallel.pool.WorkerPool` feeds per-task telemetry
    blocks into.

Every collector in this package is **off by default**: a ``None`` field of
the run context (:mod:`repro.context`; docs/ARCHITECTURE.md, "Run
context"), so untelemetered runs pay at most a handful of attribute checks
per protocol stage.

See ``docs/OBSERVABILITY.md`` for the span/metric naming scheme and the
ledger record schema.
"""

from repro.obs.fingerprint import git_revision, machine_fingerprint
from repro.obs.ledger import make_record
from repro.obs.metrics import MetricsRegistry, collecting
from repro.obs.spans import Span, recording, render_spans, span
from repro.obs.worker import WorkerTelemetry, collecting_tasks

__all__ = [
    "MetricsRegistry",
    "Span",
    "WorkerTelemetry",
    "collecting",
    "collecting_tasks",
    "git_revision",
    "machine_fingerprint",
    "make_record",
    "recording",
    "render_spans",
    "span",
]
