"""Serving-capacity sweep and Pareto frontier.

The paper decomposes where proving time goes for one request at a time;
this module asks the serving-layer version of the same question: *for a
given latency SLO, which (workers x batch-window x queue-depth)
configuration maximizes throughput — and where does each millisecond
go?*  Two pieces:

- :func:`run_capacity_sweep` — a seeded ``loadtest`` matrix over worker
  counts x verify batch windows x admission queue depths x offered RPS.
  Each cell drives a fresh :class:`~repro.serve.service.ProvingService`
  open-loop, aggregates the per-request phase breakdowns that PR 9's
  request lanes attach to every :class:`~repro.serve.jobs.JobResult`,
  and lands as a ledger schema-v5 ``capacity`` block.  Cells checkpoint
  through the same checksummed-pickle idiom as ``profile_sweep`` (one
  file per cell + MANIFEST, self-healing on corruption), so a killed
  sweep resumes instead of restarting — ``python -m repro pareto``.
- :func:`pareto_frontier` / :func:`knee_point` — the non-dominated
  throughput-vs-p99 set and the knee (max perpendicular distance from
  the frontier's normalized chord): the configuration after which extra
  throughput starts costing disproportionate tail latency.

Every cell also re-checks the phase-accounting invariant (phases sum to
``total_s`` within tolerance, :meth:`~repro.serve.jobs.JobResult.
phases_consistent`) across *all* surveyed requests; a violation fails
the sweep because a breakdown that does not add up diagnoses nothing.
See docs/CAPACITY.md.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field

from repro.obs import metrics
from repro.resilience.checkpoint import DEFAULT_DIR as CHECKPOINT_BASE, CellStore

__all__ = [
    "CapacityCell",
    "CapacityReport",
    "diagnose",
    "knee_point",
    "pareto_frontier",
    "run_capacity_sweep",
    "sweep_configs",
]

#: Dominant-phase -> bottleneck diagnosis.  ``admission``/``settle`` are
#: service bookkeeping; a configuration dominated by them is overhead-
#: bound (requests so cheap the service's own accounting shows up).
_DIAGNOSIS = {
    "admission": "overhead-bound",
    "queue_wait": "queue-bound",
    "coalesce_delay": "coalescing-bound",
    "retry_backoff": "retry-bound",
    "compute": "compute-bound",
    "settle": "overhead-bound",
}

#: One-letter legend for the text phase bar, in PHASES order.
_BAR_CHARS = {
    "admission": "a",
    "queue_wait": "q",
    "coalesce_delay": "w",
    "retry_backoff": "r",
    "compute": "c",
    "settle": "s",
}

_BAR_WIDTH = 24


def diagnose(mean_s):
    """Bottleneck diagnosis from a phase-mean dict (``{phase: seconds}``):
    the phase where the average request spends most of its life, mapped
    through :data:`_DIAGNOSIS` (``"idle"`` when nothing was tracked)."""
    if not mean_s or sum(mean_s.values()) <= 0:
        return "idle"
    dominant = max(sorted(mean_s), key=lambda ph: mean_s[ph])
    return _DIAGNOSIS.get(dominant, "unknown")


@dataclass
class CapacityCell:
    """One sweep cell: a service configuration plus its measured load
    response.  ``base/new`` comparisons and the frontier key off these
    fields, so the cell round-trips losslessly through
    :meth:`to_capacity_block` / :meth:`from_block`."""

    # -- configuration --
    workers: int = 1
    batch_window_s: float = 0.0
    max_queue: int = 16
    rps: float = 8.0
    duration_s: float = 2.0
    curve: str = "bn128"
    size: int = 32
    workload: str = "exponentiate"
    seed: int = 0
    # -- measured --
    throughput_rps: float = 0.0
    p50_s: float = 0.0
    p95_s: float = 0.0
    p99_s: float = 0.0
    sent: int = 0
    ok: int = 0
    shed_rate: float = 0.0
    timeout_rate: float = 0.0
    error_rate: float = 0.0
    wall_s: float = 0.0
    #: :meth:`LoadReport.phase_breakdown` dict (``n`` / ``mean_s`` /
    #: ``share`` / ``max_abs_error_s``).
    phases: dict = field(default_factory=dict)
    #: Requests whose phase breakdown failed the additive invariant.
    phase_violations: int = 0
    #: True when the cell was loaded from a checkpoint, not re-measured.
    resumed: bool = False

    @property
    def config_key(self):
        """Stable identity of the configuration (not the measurement)."""
        return (f"w{self.workers}_bw{self.batch_window_s:g}"
                f"_q{self.max_queue}_rps{self.rps:g}")

    @property
    def config_label(self):
        return (f"w={self.workers} bw={self.batch_window_s:g}s "
                f"q={self.max_queue} rps={self.rps:g}")

    @property
    def diagnosis(self):
        return diagnose(self.phases.get("mean_s") or {})

    def dominates(self, other):
        """Pareto dominance on (max throughput, min p99)."""
        return (self.throughput_rps >= other.throughput_rps
                and self.p99_s <= other.p99_s
                and (self.throughput_rps > other.throughput_rps
                     or self.p99_s < other.p99_s))

    def to_capacity_block(self):
        """The ledger schema-v5 ``capacity`` block."""
        return {
            "config": {
                "workers": self.workers,
                "batch_window_s": self.batch_window_s,
                "max_queue": self.max_queue,
                "rps": self.rps,
                "duration_s": self.duration_s,
                "curve": self.curve,
                "size": self.size,
                "workload": self.workload,
                "seed": self.seed,
            },
            "throughput_rps": self.throughput_rps,
            "latency_s": {"p50": self.p50_s, "p95": self.p95_s,
                          "p99": self.p99_s},
            "requests": {"sent": self.sent, "ok": self.ok},
            "shed_rate": self.shed_rate,
            "timeout_rate": self.timeout_rate,
            "error_rate": self.error_rate,
            "wall_s": self.wall_s,
            "phases": self.phases,
            "phase_violations": self.phase_violations,
            "diagnosis": self.diagnosis,
        }

    @classmethod
    def from_block(cls, block):
        """Rebuild a cell from a ledger ``capacity`` block (the gate's
        read path; unknown extra keys are ignored)."""
        cfg = block["config"]
        lat = block.get("latency_s") or {}
        req = block.get("requests") or {}
        return cls(
            workers=int(cfg["workers"]),
            batch_window_s=float(cfg["batch_window_s"]),
            max_queue=int(cfg["max_queue"]),
            rps=float(cfg["rps"]),
            duration_s=float(cfg.get("duration_s", 0.0)),
            curve=str(cfg.get("curve", "bn128")),
            size=int(cfg.get("size", 0)),
            workload=str(cfg.get("workload", "")),
            seed=int(cfg.get("seed", 0)),
            throughput_rps=float(block.get("throughput_rps", 0.0)),
            p50_s=float(lat.get("p50", 0.0)),
            p95_s=float(lat.get("p95", 0.0)),
            p99_s=float(lat.get("p99", 0.0)),
            sent=int(req.get("sent", 0)),
            ok=int(req.get("ok", 0)),
            shed_rate=float(block.get("shed_rate", 0.0)),
            timeout_rate=float(block.get("timeout_rate", 0.0)),
            error_rate=float(block.get("error_rate", 0.0)),
            wall_s=float(block.get("wall_s", 0.0)),
            phases=dict(block.get("phases") or {}),
            phase_violations=int(block.get("phase_violations", 0)),
        )


def sweep_configs(workers_list, batch_windows, queue_depths, rps_list,
                  **common):
    """The deterministic cell matrix: the cartesian product in
    (workers, batch_window, queue_depth, rps) order, as unmeasured
    :class:`CapacityCell` configs."""
    cells = []
    for workers in workers_list:
        for bw in batch_windows:
            for q in queue_depths:
                for rps in rps_list:
                    cells.append(CapacityCell(
                        workers=int(workers), batch_window_s=float(bw),
                        max_queue=int(q), rps=float(rps), **common))
    return cells


# -- frontier ---------------------------------------------------------------------


def pareto_frontier(cells):
    """The non-dominated subset on (max throughput, min p99), sorted by
    throughput ascending.  Cells with no successful request carry the
    ``n == 0`` latency sentinel, not a measurement, and are excluded."""
    eligible = [c for c in cells if c.ok > 0]
    frontier = [c for c in eligible
                if not any(o.dominates(c) for o in eligible if o is not c)]
    # Identical (throughput, p99) pairs survive dominance mutually —
    # keep one per point so the frontier is a set of points.
    seen, unique = set(), []
    for c in sorted(frontier, key=lambda c: (c.throughput_rps, c.p99_s,
                                             c.config_key)):
        pt = (c.throughput_rps, c.p99_s)
        if pt not in seen:
            seen.add(pt)
            unique.append(c)
    return unique


def knee_point(frontier):
    """The frontier's knee: the point with maximum perpendicular
    distance from the chord between the normalized frontier endpoints —
    past it, extra throughput costs disproportionate p99.  Degenerate
    frontiers (< 3 points, or a zero-length chord axis) fall back to the
    lowest-p99 point: with no visible knee, recommend the configuration
    that meets the SLO most comfortably."""
    if not frontier:
        return None
    pts = sorted(frontier, key=lambda c: (c.throughput_rps, c.p99_s))
    if len(pts) < 3:
        return min(pts, key=lambda c: (c.p99_s, -c.throughput_rps))
    x0, x1 = pts[0].throughput_rps, pts[-1].throughput_rps
    y0, y1 = pts[0].p99_s, pts[-1].p99_s
    if x1 - x0 <= 0 or y1 - y0 <= 0:
        return min(pts, key=lambda c: (c.p99_s, -c.throughput_rps))
    best, best_d = pts[0], -1.0
    for c in pts:
        # Normalized coordinates; the chord runs (0,0) -> (1,1), so the
        # perpendicular distance is |x - y| / sqrt(2) — the sqrt is a
        # common factor and drops out of the argmax.
        x = (c.throughput_rps - x0) / (x1 - x0)
        y = (c.p99_s - y0) / (y1 - y0)
        d = x - y
        if d > best_d:
            best, best_d = c, d
    return best


# -- the sweep --------------------------------------------------------------------


def _capacity_key(common, configs):
    """16-hex identity of one sweep matrix (configs + shared cell
    parameters), for the checkpoint directory name."""
    text = json.dumps([sorted(common.items()),
                       [c.config_key for c in configs]], sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _capacity_store(common, configs, base_dir=None):
    """The checksummed per-cell store of one capacity sweep (corrupt cells
    self-heal: evict, count, recompute)."""
    manifest = dict(common)
    manifest["cells"] = [c.config_key for c in configs]
    return CellStore(
        os.path.join(base_dir or CHECKPOINT_BASE,
                     f"capacity_{_capacity_key(common, configs)}"),
        manifest=manifest)


def _measure_cell(config, mix=None, deadline_s=None, max_inflight=64,
                  bad_verify_pct=0.0):
    """Run one cell's seeded open-loop loadtest against a fresh service;
    returns ``(LoadReport, MetricsRegistry)``."""
    import asyncio

    from repro.serve import ProvingService, run_loadtest

    registry = metrics.MetricsRegistry()
    service = ProvingService(
        curve=config.curve, size=config.size, workload=config.workload,
        workers=config.workers if config.workers > 1 else None,
        max_queue=config.max_queue, max_inflight=max_inflight,
        batch_window_s=config.batch_window_s, seed=config.seed)

    async def _main():
        await service.start()
        try:
            with metrics.collecting(registry):
                return await run_loadtest(
                    service, rps=config.rps, duration_s=config.duration_s,
                    mix=mix, seed=config.seed, deadline_s=deadline_s,
                    bad_verify_pct=bad_verify_pct)
        finally:
            await service.drain()

    return asyncio.run(_main()), registry


def _fill_cell(config, load):
    """Copy one load report's measurements into *config* (in place)."""
    block = load.to_service_block()
    lat, req = block["latency_s"], block["requests"]
    config.throughput_rps = block["throughput_rps"]
    config.p50_s, config.p95_s, config.p99_s = (lat["p50"], lat["p95"],
                                                lat["p99"])
    config.sent, config.ok = req["sent"], req["ok"]
    config.shed_rate = block["shed_rate"]
    config.timeout_rate = block["timeout_rate"]
    config.error_rate = block["error_rate"]
    config.wall_s = block["wall_s"]
    config.phases = block["phases"]
    config.phase_violations = sum(
        1 for r in load.results if not r.phases_consistent())
    return config


def run_capacity_sweep(workers_list=(1,), batch_windows=(0.0,),
                       queue_depths=(16,), rps_list=(8.0,), duration_s=2.0,
                       curve="bn128", size=32, workload="exponentiate",
                       seed=0, mix=None, deadline_s=None, max_inflight=64,
                       bad_verify_pct=0.0, checkpoint_dir=None, resume=True,
                       ledger_path=None, progress=None):
    """Run (or resume) the capacity matrix; returns a
    :class:`CapacityReport`.

    Finished cells persist under ``<checkpoint_dir>/capacity_<key>/`` as
    checksummed pickles of their capacity block; with *resume* they are
    loaded instead of re-measured, so a killed sweep continues where it
    stopped.  When *ledger_path* is given, every freshly measured cell
    appends one schema-v5 ``capacity`` record there (resumed cells were
    already recorded by the run that measured them).  *progress* is an
    optional ``callable(index, total, cell)`` hook for CLI reporting.
    """
    from repro.obs import ledger as ledger_mod

    common = dict(duration_s=float(duration_s), curve=curve, size=int(size),
                  workload=workload, seed=int(seed))
    configs = sweep_configs(workers_list, batch_windows, queue_depths,
                            rps_list, **common)
    if not configs:
        raise ValueError("empty capacity matrix — nothing to sweep")
    ckpt = _capacity_store(common, configs, base_dir=checkpoint_dir)
    book = ledger_mod.Ledger(ledger_path) if ledger_path else None
    cells = []
    for i, config in enumerate(configs):
        cell_file = f"cell_{config.config_key}.pkl"
        block = ckpt.load(cell_file) if resume else None
        if block is not None:
            cell = CapacityCell.from_block(block)
            cell.resumed = True
        else:
            load, registry = _measure_cell(
                config, mix=mix, deadline_s=deadline_s,
                max_inflight=max_inflight, bad_verify_pct=bad_verify_pct)
            cell = _fill_cell(config, load)
            ckpt.store(cell_file, cell.to_capacity_block())
            if book is not None:
                book.append(ledger_mod.make_record(
                    kind="capacity", curve=cell.curve, size=cell.size,
                    workload=cell.workload, seed=cell.seed, stages=[],
                    metrics=registry.snapshot(),
                    label=f"capacity {cell.config_key}",
                    service=load.to_service_block(),
                    capacity=cell.to_capacity_block()))
        cells.append(cell)
        if progress is not None:
            progress(i + 1, len(configs), cell)
    return CapacityReport(cells=cells, checkpoint_dir=ckpt.dir,
                          ledger_path=ledger_path)


# -- the report -------------------------------------------------------------------


def _phase_bar(mean_s, width=_BAR_WIDTH):
    """Proportional one-letter bar of a phase-mean dict (legend in
    :data:`_BAR_CHARS`); largest-remainder rounding keeps the width."""
    from repro.serve.jobs import PHASES

    total = sum(mean_s.get(ph, 0.0) for ph in PHASES)
    if total <= 0:
        return "." * width
    exact = [(mean_s.get(ph, 0.0) / total * width, ph) for ph in PHASES]
    counts = {ph: int(x) for x, ph in exact}
    short = width - sum(counts.values())
    for _, ph in sorted(exact, key=lambda e: -(e[0] - int(e[0])))[:short]:
        counts[ph] += 1
    return "".join(_BAR_CHARS[ph] * counts[ph] for ph in PHASES)


@dataclass
class CapacityReport:
    """One sweep's cells plus the derived frontier, knee and invariant
    audit."""

    cells: list
    checkpoint_dir: str = ""
    ledger_path: str = None

    @property
    def frontier(self):
        return pareto_frontier(self.cells)

    @property
    def knee(self):
        return knee_point(self.frontier)

    @property
    def phase_violations(self):
        return sum(c.phase_violations for c in self.cells)

    @property
    def max_abs_phase_error_s(self):
        return max((c.phases.get("max_abs_error_s", 0.0)
                    for c in self.cells), default=0.0)

    @property
    def surveyed(self):
        """Requests whose phase breakdown was tracked, across all cells."""
        return sum((c.phases.get("n") or 0) for c in self.cells)

    @property
    def ok(self):
        """True iff the sweep measured something and every surveyed
        request's phases summed to its total within tolerance."""
        return any(c.ok > 0 for c in self.cells) \
            and self.phase_violations == 0

    def to_dict(self):
        frontier = self.frontier
        knee = self.knee
        return {
            "cells": [c.to_capacity_block() for c in self.cells],
            "resumed": sum(1 for c in self.cells if c.resumed),
            "frontier": [c.config_key for c in frontier],
            "knee": knee.config_key if knee is not None else None,
            "phase_violations": self.phase_violations,
            "max_abs_phase_error_s": self.max_abs_phase_error_s,
            "surveyed_requests": self.surveyed,
            "checkpoint_dir": self.checkpoint_dir,
            "ledger_path": self.ledger_path,
        }

    def to_json(self, indent=None):
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def render_text(self):
        c0 = self.cells[0]
        resumed = sum(1 for c in self.cells if c.resumed)
        frontier = self.frontier
        knee = self.knee
        on_frontier = {id(c) for c in frontier}
        lines = [
            f"capacity sweep: {c0.workload}/{c0.curve} n={c0.size} "
            f"seed={c0.seed} — {len(self.cells)} cell(s)"
            + (f", {resumed} resumed" if resumed else ""),
            "",
            "  configuration              throughput      p99      "
            "phase breakdown          diagnosis",
        ]
        for c in self.cells:
            mark = "*" if id(c) in on_frontier else " "
            mark = "K" if knee is not None and c is knee else mark
            lines.append(
                f"  {mark} {c.config_label:<24s} "
                f"{c.throughput_rps:7.2f} ok/s "
                f"{c.p99_s * 1e3:8.1f}ms  "
                f"[{_phase_bar(c.phases.get('mean_s') or {})}] "
                f"{c.diagnosis}")
        legend = " ".join(f"{ch}={ph}" for ph, ch in _BAR_CHARS.items())
        lines += ["", f"  bar legend: {legend}", "",
                  f"  frontier ({len(frontier)} non-dominated, "
                  f"* above; K = knee):"]
        for c in frontier:
            lines.append(f"    {c.config_label:<24s} "
                         f"{c.throughput_rps:7.2f} ok/s @ "
                         f"p99 {c.p99_s * 1e3:.1f}ms [{c.diagnosis}]")
        if not frontier:
            lines.append("    (empty — no cell completed a request)")
        if knee is not None:
            lines.append(
                f"  knee recommendation: {knee.config_label} — "
                f"{knee.throughput_rps:.2f} ok/s at "
                f"p99 {knee.p99_s * 1e3:.1f}ms ({knee.diagnosis})")
        lines.append(
            f"  phase accounting: {self.surveyed} request(s) surveyed, "
            f"max |error| {self.max_abs_phase_error_s * 1e3:.3f}ms, "
            f"{self.phase_violations} violation(s)")
        return "\n".join(lines)
