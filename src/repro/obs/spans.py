"""Hierarchical runtime spans: wall/CPU time, peak-RSS delta, GC activity.

A *span* observes one named phase of the real Python process — what the
paper gets from coarse ``perf stat`` wrappers around each protocol stage.
Spans nest: the recorder keeps a process-global current-span stack, so
``span("proving")`` inside ``span("workflow")`` lands as a child, and the
closed tree serializes into the run ledger.

Each span records:

- ``wall_s`` — ``time.perf_counter`` delta;
- ``cpu_s`` — ``time.process_time`` delta (user+system, whole process);
- ``rss_peak_delta_kb`` — growth of ``ru_maxrss`` while the span was open.
  ``ru_maxrss`` is a high-water mark, so this is only non-zero for the
  span that *pushes* the peak — exactly the attribution the paper's
  Fig.-style memory analysis wants (which stage allocates the footprint);
- ``gc_collections`` — generational collections that ran inside the span;
- ``counters`` — optionally attached :mod:`repro.perf.trace` primitive
  counts (see :func:`attach_counters`), linking the runtime view to the
  modeled one.

Every span is opened and closed here, in this process, with one
exception: the ``task:<fn>`` bars of a pooled map.  The pool builds each
one in the parent from the task's telemetry record
(:mod:`repro.parallel.pool`) and appends it to the ``parallel:*`` span
that dispatched it, with ``meta["lane"] = "worker <pid>"``; workers
record no spans.

Disabled-path cost: ``span()`` first reads ``RUN.spans`` (the run context,
docs/ARCHITECTURE.md); when it is ``None`` (no :func:`recording` active)
the context manager yields immediately without touching the clocks.
"""

from __future__ import annotations

import gc
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.context import RUN, scoped

try:
    import resource
except ImportError:  # pragma: no cover - non-POSIX platforms
    resource = None

__all__ = [
    "Span",
    "SpanRecorder",
    "attach_counters",
    "recording",
    "render_spans",
    "span",
]

def _rss_peak_kb():
    if resource is None:
        return 0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _gc_collections():
    return sum(s["collections"] for s in gc.get_stats())


@dataclass
class Span:
    """One closed (or still-open) phase of the run."""

    name: str
    depth: int
    #: Start offset in seconds relative to the recorder's start (feeds the
    #: ``ts`` field of the chrome-trace export).
    start_s: float = 0.0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    rss_peak_delta_kb: int = 0
    gc_collections: int = 0
    meta: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)
    children: list = field(default_factory=list)

    def walk(self):
        """Yield this span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def to_dict(self):
        """JSON-ready form (the shape stored in ledger records)."""
        d = {
            "name": self.name,
            "start_s": round(self.start_s, 6),
            "wall_s": round(self.wall_s, 6),
            "cpu_s": round(self.cpu_s, 6),
            "rss_peak_delta_kb": self.rss_peak_delta_kb,
            "gc_collections": self.gc_collections,
        }
        if self.meta:
            d["meta"] = dict(self.meta)
        if self.counters:
            d["counters"] = {k: int(v) for k, v in self.counters.items()}
        if self.children:
            d["children"] = [c.to_dict() for c in self.children]
        return d


class SpanRecorder:
    """Owns one run's span tree and the current-span stack."""

    def __init__(self, label="run"):
        self.t0 = time.perf_counter()
        self.root = Span(name=label, depth=0)
        self._stack = [self.root]
        self._open(self.root)

    def _open(self, sp):
        sp.start_s = time.perf_counter() - self.t0
        sp._cpu0 = time.process_time()
        sp._rss0 = _rss_peak_kb()
        sp._gc0 = _gc_collections()

    def _close(self, sp):
        sp.wall_s = (time.perf_counter() - self.t0) - sp.start_s
        sp.cpu_s = time.process_time() - sp._cpu0
        sp.rss_peak_delta_kb = _rss_peak_kb() - sp._rss0
        sp.gc_collections = _gc_collections() - sp._gc0
        del sp._cpu0, sp._rss0, sp._gc0

    @property
    def innermost(self):
        return self._stack[-1]


@contextmanager
def span(name, **meta):
    """Open a child span named *name* under the innermost open span.

    No-op (yields ``None``) when no :func:`recording` is active, so call
    sites need no guard of their own.
    """
    rec = RUN.spans
    if rec is None:
        yield None
        return
    parent = rec._stack[-1]
    sp = Span(name=name, depth=parent.depth + 1, meta=meta)
    parent.children.append(sp)
    rec._stack.append(sp)
    rec._open(sp)
    try:
        yield sp
    finally:
        rec._close(sp)
        popped = rec._stack.pop()
        assert popped is sp, "span stack corrupted"


def attach_counters(counts):
    """Merge a ``{primitive: count}`` mapping into the innermost open span.

    The workflow uses this to attach a stage tracer's
    :meth:`~repro.perf.trace.Tracer.total_counts` to the stage span, so one
    ledger record carries both the measured and the modeled view.  No-op
    when not recording.
    """
    rec = RUN.spans
    if rec is None:
        return
    target = rec.innermost.counters
    for key, value in counts.items():
        target[key] = target.get(key, 0) + value


@contextmanager
def recording(label="run"):
    """Install a fresh :class:`SpanRecorder` as ``RUN.spans``.

    Yields the recorder; its ``root`` span closes when the context exits.
    Nested recording is rejected (one telemetry tree per run).
    """
    with scoped("spans", SpanRecorder(label),
                busy=RuntimeError("a span recorder is already active")) as rec:
        try:
            yield rec
        finally:
            rec._close(rec.root)


def render_spans(root):
    """Aligned text rendering of a span tree."""
    rows = []
    for sp in root.walk():
        rows.append((
            "  " * sp.depth + sp.name,
            f"{sp.wall_s:10.4f}s",
            f"{sp.cpu_s:10.4f}s",
            f"{sp.rss_peak_delta_kb:+9d}" if sp.rss_peak_delta_kb else f"{0:9d}",
            f"{sp.gc_collections:4d}",
        ))
    width = max(len(r[0]) for r in rows)
    header = (f"{'span':<{width}}  {'wall':>11} {'cpu':>11} "
              f"{'rss(kb)':>9} {'gc':>4}")
    lines = [header, "-" * len(header)]
    for name, wall, cpu, rss, gcs in rows:
        lines.append(f"{name:<{width}}  {wall:>11} {cpu:>11} {rss:>9} {gcs:>4}")
    return "\n".join(lines)
