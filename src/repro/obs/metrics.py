"""Process-global metrics registry: counters, gauges, fixed-bucket histograms.

The hot kernels (the bucket MSM, the NTT passes, field inversions, batch
verification) report coarse-grained facts here — calls, sizes, cache
hits — so a profiled run can answer "how many transforms of which size did
the proving stage issue?" without paying for a full trace.

Design rules, mirroring :mod:`repro.perf.trace`:

- **Off by default, near-zero when off.**  Instrumentation sites guard on
  ``RUN.metrics is None`` (the run context, docs/ARCHITECTURE.md); a
  disabled site costs one attribute load and an ``is None`` check.  Sites
  live at *kernel-call* granularity (one check per NTT, not per butterfly)
  so even the check is amortized over thousands of field operations.
- **Counts, not timings.**  Every histogram has the power-of-two
  boundaries :data:`DEFAULT_BUCKETS` and bucket selection is pure value
  arithmetic — no wall-clock reads, so two runs of the same workload
  produce byte-identical histograms.  A duration lives in the one record
  that owns it — a span, a pool task record (:mod:`repro.obs.worker`),
  a served request's ``JobResult`` — and is never mirrored here.
- **One naming scheme.**  Metric names follow
  ``repro_<subsystem>_<name>`` with Prometheus-style suffixes
  (``_total`` for counters); the registry rejects names outside that
  scheme so the ledger stays greppable.
"""

from __future__ import annotations

import json
import re
from bisect import bisect_left

from repro.context import scoped

__all__ = [
    "DEFAULT_BUCKETS",
    "MetricsRegistry",
    "collecting",
]

#: Default histogram boundaries: powers of two over the full sweep range
#: (circuit sizes, MSM point counts and batch sizes are all ~powers of two).
DEFAULT_BUCKETS = tuple(2**k for k in range(21))

_NAME_RE = re.compile(r"^repro(_[a-z0-9]+)+$")


def _check_name(name):
    if not _NAME_RE.match(name):
        raise ValueError(
            f"bad metric name {name!r}: expected repro_<subsystem>_<name> "
            "(lowercase, underscore-separated)"
        )
    return name


class Histogram:
    """Fixed-boundary histogram: ``boundaries[i]`` is the *inclusive* upper
    edge of bucket ``i``; one extra overflow bucket catches the rest."""

    __slots__ = ("boundaries", "counts", "count", "total")

    def __init__(self, boundaries=DEFAULT_BUCKETS):
        bounds = tuple(boundaries)
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise ValueError(f"boundaries must be sorted and distinct, got {bounds!r}")
        self.boundaries = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.total = 0

    def observe(self, value, n=1):
        self.counts[bisect_left(self.boundaries, value)] += n
        self.count += n
        self.total += value * n

    def to_dict(self):
        return {
            "boundaries": list(self.boundaries),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.total,
        }


class MetricsRegistry:
    """Holds the named counters, gauges and histograms of one collection.

    Names are validated on the *creation* of a series, not on every
    increment, so the steady-state hot path is a dict update.
    """

    def __init__(self):
        self.counters = {}
        self.gauges = {}
        self.histograms = {}

    # -- hot-path updates ----------------------------------------------------

    def inc(self, name, n=1):
        """Add *n* to counter *name* (created at zero on first use)."""
        try:
            self.counters[name] += n
        except KeyError:
            self.counters[_check_name(name)] = n

    def set_gauge(self, name, value):
        """Set gauge *name* to *value* (last write wins)."""
        if name not in self.gauges:
            _check_name(name)
        self.gauges[name] = value

    def observe(self, name, value, n=1):
        """Record *value* (*n* times) into histogram *name*, created on
        first use with :data:`DEFAULT_BUCKETS`."""
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms.setdefault(_check_name(name), Histogram())
        hist.observe(value, n)

    # -- cross-process merge -------------------------------------------------

    def merge(self, snapshot):
        """Fold a :meth:`snapshot`-shaped delta dict into this registry.

        This is the parent side of the worker-telemetry protocol
        (:mod:`repro.obs.worker`): each worker task runs under a *fresh*
        registry, so its snapshot is exactly the task's delta, and merging
        is counter addition, gauge last-write, and element-wise histogram
        bucket addition.  Histograms merge only onto identical boundaries
        (both sides are created from the same instrumentation sites, so a
        mismatch is a protocol bug, not data).  Returns ``self``.
        """
        for name, value in (snapshot.get("counters") or {}).items():
            self.inc(name, value)
        for name, value in (snapshot.get("gauges") or {}).items():
            self.set_gauge(name, value)
        for name, data in (snapshot.get("histograms") or {}).items():
            bounds = tuple(data["boundaries"])
            hist = self.histograms.get(name)
            if hist is None:
                hist = self.histograms.setdefault(
                    _check_name(name), Histogram(bounds))
            elif bounds != hist.boundaries:
                raise ValueError(
                    f"histogram {name!r} already exists with other boundaries")
            for i, n in enumerate(data["counts"]):
                hist.counts[i] += n
            hist.count += data["count"]
            hist.total += data["sum"]
        return self

    # -- reads ---------------------------------------------------------------

    def counter(self, name):
        """Current value of counter *name* (0 if never incremented)."""
        return self.counters.get(name, 0)

    def gauge(self, name, default=None):
        return self.gauges.get(name, default)

    def histogram(self, name):
        """The :class:`Histogram` for *name*, or ``None``."""
        return self.histograms.get(name)

    # -- rendering -----------------------------------------------------------

    def snapshot(self):
        """Plain-data snapshot (the shape stored in ledger records)."""
        return {
            "counters": dict(sorted(self.counters.items())),
            "gauges": dict(sorted(self.gauges.items())),
            "histograms": {
                name: hist.to_dict()
                for name, hist in sorted(self.histograms.items())
            },
        }

    def to_json(self, indent=None):
        return json.dumps(self.snapshot(), indent=indent)

    def render_text(self):
        """Human-readable dump, one series per line (histograms show
        count/sum plus the non-empty buckets)."""
        lines = []
        for name, value in sorted(self.counters.items()):
            lines.append(f"{name} {value}")
        for name, value in sorted(self.gauges.items()):
            lines.append(f"{name} {value}")
        for name, hist in sorted(self.histograms.items()):
            lines.append(f"{name} count={hist.count} sum={hist.total}")
            for i, n in enumerate(hist.counts):
                if n:
                    edge = (f"le={hist.boundaries[i]}" if i < len(hist.boundaries)
                            else "overflow")
                    lines.append(f"  {name}{{{edge}}} {n}")
        return "\n".join(lines) if lines else "(no metrics recorded)"


def collecting(registry=None):
    """Install *registry* (or a fresh one) as ``RUN.metrics``.

    Nested collection is rejected for the same reason nested tracing is:
    two live registries would silently split the counts.
    """
    return scoped("metrics",
                  registry if registry is not None else MetricsRegistry(),
                  busy=RuntimeError("a metrics registry is already active"))
