"""Cross-process worker telemetry: the parent-side collector.

PR 5 made the proving stack genuinely parallel, but the worker envelope
reset every telemetry slot in child processes, so the layer doing most of
the work was dark: we could see *that* 4 workers give a speedup, never
*why* it is not 4x.  This module is the parent half of the protocol that
lights it up:

- **Worker side** (:mod:`repro.parallel.pool`): when the parent installs
  a :class:`WorkerTelemetry` collector, each shipped task context carries
  ``telemetry: True`` and the envelope captures — behind the same opt-in
  that keeps untelemetered runs free — per-task wall/CPU seconds, the
  peak-RSS delta, payload decode and result encode timings and byte
  sizes, the task's metric deltas (a fresh registry per task, so the
  snapshot *is* the delta), and a compact span subtree, all stamped on
  the shared monotonic clock (workers are forked, so ``perf_counter``
  values are directly comparable across the pool).
- **Parent side** (this module): ``WorkerPool._settle`` feeds every
  envelope's telemetry block into the installed collector, merges metric
  deltas into the active parent registry
  (:meth:`~repro.obs.metrics.MetricsRegistry.merge`), grafts worker span
  lanes — each task bar with its wire costs — under the dispatching span
  (:func:`repro.obs.spans.graft`; ``profile --workers N --span-trace``
  renders them one lane per worker pid), and
  emits pool-level series: the ``repro_parallel_queue_wait_seconds`` and
  ``repro_parallel_task_wall_seconds`` histograms and the
  ``repro_parallel_worker_utilization`` /
  ``repro_parallel_chunk_imbalance_ratio`` gauges.

The collector accumulates per-task records and per-map windows and
renders into the ledger record's ``workers`` block
(:meth:`WorkerTelemetry.to_workers_block`; the record shape is described
in :mod:`repro.obs.ledger`).  ``run fig6 --measured``
(:func:`repro.harness.measured.fig6_measured`) reads one collector per
worker count and turns the top one into per-stage busy time,
utilization, imbalance and dispatch overhead beside the measured
speedups and their Amdahl fit.

The collector lives in ``RUN.tasks`` (the run context,
docs/ARCHITECTURE.md): ``None`` means worker telemetry is off and the pool
ships no telemetry context.
"""

from __future__ import annotations

import time

from repro.context import scoped
from repro.obs.metrics import MetricsRegistry

__all__ = [
    "ENABLED_OVERHEAD_BOUND",
    "WorkerTelemetry",
    "collecting_tasks",
]

#: Documented ceiling on how much the *enabled* telemetry path may slow a
#: worker task down (ratio of telemetered to plain envelope CPU time on a
#: compute-bound task).  The capture cost is one registry, one span
#: recorder, a handful of clock reads and one pickle of the result —
#: fixed per task, amortized over chunk-sized work.  The contract test
#: (tests/obs/test_worker_overhead.py) enforces this bound on a task
#: large enough that the fixed cost is the signal, not the noise.
ENABLED_OVERHEAD_BOUND = 3.0


def _per_worker_zero():
    return {
        "tasks": 0,
        "busy_s": 0.0,
        "cpu_s": 0.0,
        "queue_wait_s": 0.0,
        "encode_s": 0.0,
        "decode_s": 0.0,
        "payload_bytes": 0,
        "result_bytes": 0,
    }


class WorkerTelemetry:
    """Accumulates one run's cross-process task telemetry in the parent.

    Install with :func:`collecting_tasks` (or let ``profile --workers``
    and ``run fig6 --measured`` do it);
    while installed, every ``WorkerPool.map`` records one *map window*
    (dispatch-to-settle wall interval) plus one *task record* per
    envelope.  All ``start_s`` offsets are relative to the collector's
    creation, on the monotonic clock shared with forked workers.
    """

    def __init__(self, label="parallel"):
        self.label = label
        self.t0 = time.perf_counter()
        self.stage = None
        self.backend = None
        self.workers = 0
        #: One dict per ``WorkerPool.map`` call (the parent-side window).
        self.maps = []
        #: One dict per task envelope, in settle order.
        self.tasks = []
        #: Merged worker-side metric deltas (kept even when no parent
        #: registry is active, so reports can read kernel counters).
        self.registry = MetricsRegistry()

    # -- recording (called by WorkerPool) ------------------------------------

    def begin_stage(self, stage):
        """Tag subsequent maps/tasks with the protocol stage driving them."""
        self.stage = stage

    def record_map(self, *, label, task, backend, workers, start_s, wall_s,
                   task_records):
        """Record one settled map: its window plus its task records.

        Returns the map dict (utilization and imbalance included), which
        the pool also mirrors into the parent metrics gauges.
        """
        self.backend = backend
        self.workers = max(self.workers, workers)
        for t in task_records:
            t["stage"] = self.stage
        busy = sum(t["wall_s"] for t in task_records)
        walls = [t["wall_s"] for t in task_records]
        mean = busy / len(walls) if walls else 0.0
        imbalance = (max(walls) / mean) if mean > 0 else 1.0
        window = max(wall_s, 1e-9)
        rec = {
            "label": label,
            "task": task,
            "stage": self.stage,
            "backend": backend,
            "workers": workers,
            "n_tasks": len(task_records),
            "start_s": round(start_s, 6),
            "wall_s": round(wall_s, 6),
            "busy_s": round(busy, 6),
            "utilization": round(busy / (window * workers), 4),
            "imbalance": round(imbalance, 4),
        }
        self.maps.append(rec)
        self.tasks.extend(task_records)
        return rec

    def merge_metrics(self, snapshot):
        """Fold one task's metric deltas into the collector's registry."""
        self.registry.merge(snapshot)

    # -- derived views --------------------------------------------------------

    def per_worker(self):
        """Aggregate task records by worker pid -> totals dict."""
        out = {}
        for t in self.tasks:
            agg = out.setdefault(t["pid"], _per_worker_zero())
            agg["tasks"] += 1
            agg["busy_s"] = round(agg["busy_s"] + t["wall_s"], 6)
            agg["cpu_s"] = round(agg["cpu_s"] + t["cpu_s"], 6)
            for key in ("queue_wait_s", "encode_s", "decode_s"):
                agg[key] = round(agg[key] + (t.get(key) or 0.0), 6)
            for key in ("payload_bytes", "result_bytes"):
                agg[key] += t.get(key) or 0
        return out

    def totals(self):
        """Pool-wide sums across every recorded task."""
        total = _per_worker_zero()
        for agg in self.per_worker().values():
            for key, value in agg.items():
                total[key] = round(total[key] + value, 6)
        total["maps"] = len(self.maps)
        total["window_s"] = round(
            sum(m["wall_s"] for m in self.maps), 6)
        return total

    def stage_tasks(self, stage):
        """Task records attributed to *stage* (dispatching-stage tag)."""
        return [t for t in self.tasks if t.get("stage") == stage]

    def utilization(self):
        """Busy seconds over lane-seconds of the fan-out windows.

        1.0 means every worker computed for every second of every map
        window; the gap is dispatch/combine overhead and stragglers.
        (Serial parent phases *between* maps are not in the denominator —
        the per-stage ``util`` column of ``run fig6 --measured`` covers
        those.)
        """
        lane_s = sum(m["wall_s"] * m["workers"] for m in self.maps)
        busy = sum(m["busy_s"] for m in self.maps)
        return busy / lane_s if lane_s > 0 else 0.0

    def imbalance(self):
        """Max-over-mean per-worker busy time (1.0 = perfectly even)."""
        busys = [agg["busy_s"] for agg in self.per_worker().values()]
        if not busys:
            return 1.0
        mean = sum(busys) / len(busys)
        return max(busys) / mean if mean > 0 else 1.0

    def dispatch_overhead_s(self):
        """Seconds spent moving work instead of doing it: queue wait plus
        payload/result encode+decode, summed over every task."""
        total = self.totals()
        return round(total["queue_wait_s"] + total["encode_s"]
                     + total["decode_s"], 6)

    def to_workers_block(self):
        """The ledger record's ``workers`` block (plain JSON data)."""
        return {
            "backend": self.backend,
            "workers": self.workers,
            "label": self.label,
            "per_worker": {
                str(pid): agg for pid, agg in sorted(self.per_worker().items())
            },
            "maps": list(self.maps),
            "tasks": list(self.tasks),
            "totals": self.totals(),
            "utilization": round(self.utilization(), 4),
            "imbalance": round(self.imbalance(), 4),
            "metrics": self.registry.snapshot(),
        }


def collecting_tasks(collector=None, label="parallel"):
    """Install *collector* (or a fresh one) as ``RUN.tasks``; the pool then
    ships telemetry contexts with every task.  Nested collection is
    rejected like nested metrics."""
    return scoped("tasks",
                  collector if collector is not None else WorkerTelemetry(label),
                  busy=RuntimeError(
                      "a worker telemetry collector is already active"))
