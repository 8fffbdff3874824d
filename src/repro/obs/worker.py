"""Cross-process worker telemetry: the parent-side collector and report.

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

The collector accumulates per-task records and per-map windows, renders
into the ledger record's ``workers`` block
(:meth:`WorkerTelemetry.to_workers_block`; the record shape is described
in :mod:`repro.obs.ledger`) and backs
``python -m repro parallel-report`` (:func:`build_parallel_report`),
which turns a measured worker sweep
into per-worker busy time, parallel efficiency, imbalance and dispatch
overhead — cross-checked against the Amdahl fit of the same measured
wall times (the :mod:`repro.harness.measured` drift-reference pattern).

The collector lives in ``RUN.tasks`` (the run context,
docs/ARCHITECTURE.md): ``None`` means worker telemetry is off and the pool
ships no telemetry context.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.context import scoped
from repro.obs.metrics import MetricsRegistry

__all__ = [
    "ENABLED_OVERHEAD_BOUND",
    "ParallelReport",
    "WorkerTelemetry",
    "build_parallel_report",
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

    Install with :func:`collecting_tasks` (or let ``profile --workers``,
    ``run --measured`` and ``parallel-report`` do it);
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
        stage-level efficiency in :class:`ParallelReport` covers those.)
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


# -- the parallel-efficiency report -------------------------------------------------


@dataclass
class ParallelReport:
    """Per-stage parallel-efficiency analysis of one measured worker sweep.

    ``stages`` maps stage name to a dict with the measured wall times per
    worker count, speedup/efficiency at the top count, worker busy time,
    utilization, imbalance, dispatch overhead, the Amdahl fit over the
    measured speedups, and the efficiency drift (measured minus
    fit-predicted) — the report's cross-check that the task-level
    attribution and the wall-clock scaling tell the same story.
    """

    curve: str
    size: int
    workload: str
    seed: int
    workers: tuple
    top: int
    cpu_count: int
    stages: dict
    per_worker: dict
    totals: dict
    utilization: float
    imbalance: float
    dispatch_overhead_s: float

    def to_dict(self):
        return {
            "curve": self.curve,
            "size": self.size,
            "workload": self.workload,
            "seed": self.seed,
            "workers": list(self.workers),
            "top": self.top,
            "cpu_count": self.cpu_count,
            "stages": self.stages,
            "per_worker": self.per_worker,
            "totals": self.totals,
            "utilization": self.utilization,
            "imbalance": self.imbalance,
            "dispatch_overhead_s": self.dispatch_overhead_s,
        }

    def render_text(self):
        lines = [
            f"parallel report: {self.workload}/{self.curve} n={self.size} "
            f"workers={','.join(str(n) for n in self.workers)} "
            f"(top {self.top}w, {self.cpu_count} cores)",
            "",
            f"{'stage':<10} {'wall(1w)':>9} {f'wall({self.top}w)':>9} "
            f"{'speedup':>8} {'eff':>6} {'busy':>8} {'util':>6} "
            f"{'imbal':>6} {'overhead':>9} {'Amdahl ser':>10} {'drift':>7}",
        ]
        lines.append("-" * len(lines[-1]))
        for stage, s in self.stages.items():
            lines.append(
                f"{stage:<10} {s['wall_s'][str(1)]:>9.3f} "
                f"{s['wall_s'][str(self.top)]:>9.3f} {s['speedup']:>8.2f} "
                f"{s['efficiency']:>6.2f} {s['busy_s']:>8.3f} "
                f"{s['utilization']:>6.2f} {s['imbalance']:>6.2f} "
                f"{s['overhead_s']:>9.4f} "
                f"{100 * s['amdahl']['serial']:>9.1f}% "
                f"{s['efficiency_drift']:>+7.3f}"
            )
        lines.append("")
        lines.append(f"{'worker pid':<12} {'tasks':>6} {'busy':>9} "
                     f"{'cpu':>9} {'queue':>8} {'codec':>8} {'share':>6}")
        lines.append("-" * len(lines[-1]))
        total_busy = sum(a["busy_s"] for a in self.per_worker.values()) or 1.0
        for pid, agg in sorted(self.per_worker.items()):
            codec = agg["encode_s"] + agg["decode_s"]
            lines.append(
                f"{pid:<12} {agg['tasks']:>6d} {agg['busy_s']:>9.3f} "
                f"{agg['cpu_s']:>9.3f} {agg['queue_wait_s']:>8.4f} "
                f"{codec:>8.4f} {100 * agg['busy_s'] / total_busy:>5.1f}%"
            )
        lines.append("")
        lines.append(
            f"pool: utilization {self.utilization:.2f}  imbalance "
            f"{self.imbalance:.2f}  dispatch overhead "
            f"{self.dispatch_overhead_s:.4f}s over {self.totals['maps']} "
            f"map(s) / {self.totals['tasks']} task(s)"
        )
        lines.append(
            "drift = measured efficiency minus the Amdahl-fit prediction "
            "at the top worker count (reference, not a gate)"
        )
        return "\n".join(lines)


def _amdahl_efficiency(serial_fraction, n):
    """Predicted efficiency at *n* workers from an Amdahl serial fraction."""
    if n <= 0:
        return 0.0
    speedup = 1.0 / (serial_fraction + (1.0 - serial_fraction) / n)
    return speedup / n


def build_parallel_report(curve="bn128", size=4096, workers=(1, 2, 4),
                          workload="exponentiate", seed=0, repeats=1):
    """Run a measured worker sweep and distill it into a
    :class:`ParallelReport`.

    Reuses :func:`repro.harness.measured.measured_stage_times` — the same
    runner behind ``run fig6 --measured`` — with telemetry collection on,
    then fits Amdahl's law to the measured speedups
    (:func:`repro.perf.scaling.amdahl_fit`) as the drift reference for the
    task-level efficiency attribution, read off the :class:`WorkerTelemetry`
    of the top worker count.
    """
    import os

    from repro.harness.measured import measured_stage_times
    from repro.perf.scaling import amdahl_fit, speedups_from_times
    from repro.workflow import STAGES

    workers = tuple(sorted(set(workers)))
    if 1 not in workers:
        workers = (1,) + workers
    times, telemetry = measured_stage_times(
        curve, size, workers, workload=workload, seed=seed,
        repeats=repeats, telemetry=True)
    top = max(workers)
    tel = telemetry.get(top)

    stages = {}
    for stage in STAGES:
        sp = speedups_from_times(times[stage])
        serial, par = amdahl_fit(sp)
        wall_top = times[stage][top]
        speedup = sp[top]
        efficiency = speedup / top
        stage_tasks = tel.stage_tasks(stage) if tel is not None else []
        busy = sum(t["wall_s"] for t in stage_tasks)
        by_pid = {}
        for t in stage_tasks:
            by_pid[t["pid"]] = by_pid.get(t["pid"], 0.0) + t["wall_s"]
        mean = (sum(by_pid.values()) / len(by_pid)) if by_pid else 0.0
        imbalance = (max(by_pid.values()) / mean) if mean > 0 else 1.0
        overhead = sum((t.get("queue_wait_s") or 0.0)
                       + (t.get("encode_s") or 0.0)
                       + (t.get("decode_s") or 0.0) for t in stage_tasks)
        predicted = _amdahl_efficiency(serial, top)
        stages[stage] = {
            "wall_s": {str(n): round(times[stage][n], 6) for n in workers},
            "speedup": round(speedup, 4),
            "efficiency": round(efficiency, 4),
            "busy_s": round(busy, 6),
            "per_worker_busy_s": {str(p): round(v, 6)
                                  for p, v in sorted(by_pid.items())},
            "utilization": round(busy / (wall_top * top), 4) if wall_top > 0
                           else 0.0,
            "imbalance": round(imbalance, 4),
            "overhead_s": round(overhead, 6),
            "n_tasks": len(stage_tasks),
            "amdahl": {"serial": round(serial, 4), "parallel": round(par, 4)},
            "predicted_efficiency": round(predicted, 4),
            "efficiency_drift": round(efficiency - predicted, 4),
        }

    if tel is not None:
        per_worker = {str(p): a for p, a in sorted(tel.per_worker().items())}
        totals = tel.totals()
        utilization = round(tel.utilization(), 4)
        imbalance = round(tel.imbalance(), 4)
        overhead_s = tel.dispatch_overhead_s()
    else:
        per_worker, totals = {}, _per_worker_zero() | {"maps": 0, "window_s": 0.0}
        utilization, imbalance, overhead_s = 0.0, 1.0, 0.0

    return ParallelReport(
        curve=curve, size=size, workload=workload, seed=seed,
        workers=workers, top=top, cpu_count=os.cpu_count() or 1,
        stages=stages, per_worker=per_worker, totals=totals,
        utilization=utilization, imbalance=imbalance,
        dispatch_overhead_s=overhead_s,
    )
