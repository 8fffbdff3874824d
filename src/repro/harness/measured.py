"""Measured scaling experiments: Fig. 6/7 and Table VI on real workers.

The analytical experiments in :mod:`repro.harness.experiments` *simulate*
the paper's thread sweeps from traced work splits (Python's GIL makes an
in-process thread sweep meaningless).  This module is the measured
counterpart the parallel backend (:mod:`repro.parallel`) unlocks: drive
the five-stage workflow under real worker counts, take wall times, and
fit the paper's Amdahl (Eq. 1) / Gustafson (Eq. 2) laws to *measured*
speedups.  Every run executes under a worker-telemetry collector
(:mod:`repro.obs.worker`), so the strong-scaling table also says where
the top worker count's time went: busy, utilization, imbalance and
dispatch overhead per stage.

The analytical model stays in the loop as a **drift reference** (the
pattern of :mod:`repro.obs.drift`): each measured experiment also
computes the modeled speedups for the same worker counts and reports the
per-stage gap in ``extras["drift"]`` — informational, never fatal, since
measured scaling depends on the host's core count while the model
assumes the paper's i9.

Each artifact's default size and worker counts are the defaults of its
function below; ``run <artifact> --measured`` passes only what was given.
Every sweep includes 1 worker, the baseline every speedup is taken
against.  Every entry point returns the harness's
:class:`~repro.harness.experiments.ExperimentResult`, so rendered tables
and machine-readable extras flow through the same reporting path as the
modeled artifacts.
"""

from __future__ import annotations

import os

from repro.harness.experiments import ExperimentResult
from repro.perf.cpu import I9_13900K
from repro.perf.scaling import (
    amdahl_fit,
    gustafson_fit,
    speedups_from_times,
    strong_scaling,
    weak_scaling,
)
from repro.workflow import STAGES, Workflow

__all__ = [
    "MEASURED_ARTIFACTS",
    "fig6_measured",
    "fig7_measured",
    "measured_stage_times",
    "table6_parallelism_measured",
]

#: Size at which the modeled drift reference is computed.  Kept small:
#: the reference needs a traced profile, which is orders of magnitude
#: slower per constraint than the real run it sanity-checks.
REFERENCE_SIZE = 256


def _sweep(workers):
    """The worker counts of one sweep: sorted, deduplicated, and anchored
    at 1.  One count alone fits no scaling law, so it is rejected before
    anything runs."""
    counts = tuple(sorted(set(workers) | {1}))
    if len(counts) < 2:
        raise ValueError("a measured sweep needs a worker count above 1; "
                         "1 is always swept as the speedup baseline")
    return counts


def measured_stage_times(curve_name, size, workers, workload="exponentiate",
                         seed=0, repeats=1):
    """Measured wall seconds per stage per worker count, and the worker
    telemetry behind them.

    Runs the full workflow once per worker count (*repeats* times, taking
    the per-stage minimum — the standard best-of-N noise filter) and
    returns ``(times, telemetry)``: ``times`` is ``{stage: {n_workers:
    seconds}}`` and ``telemetry`` is ``{n_workers: WorkerTelemetry}``, the
    collector of the *last* repeat per worker count (the task records of
    one coherent run, not a min-mixed chimera).  Every run re-executes all
    five stages so the inter-stage artifacts are bit-identical inputs.
    """
    from repro.curves import get_curve
    from repro.harness.circuits import build_workload
    from repro.obs.worker import collecting_tasks

    curve = get_curve(curve_name)
    times = {stage: {} for stage in STAGES}
    telemetry = {}
    for n in workers:
        best = {}
        for _ in range(max(1, repeats)):
            builder, inputs = build_workload(workload, curve, size)
            with collecting_tasks(label=f"{workload}:{n}w") as tel, \
                    Workflow(curve, builder, inputs, seed=seed,
                             workers=n) as wf:
                wf.run_all()
                if wf.accepted is not True:
                    raise RuntimeError(
                        f"measured run rejected its own proof "
                        f"(curve={curve_name} size={size} workers={n})")
                for stage in STAGES:
                    elapsed = wf.results[stage].elapsed
                    if stage not in best or elapsed < best[stage]:
                        best[stage] = elapsed
            telemetry[n] = tel
        for stage in STAGES:
            times[stage][n] = best[stage]
    return times, telemetry


def _modeled_reference(curve_name, workers, workload, seed, weak=False):
    """Modeled per-stage speedups for the same worker counts (drift ref)."""
    from repro.harness.runner import profile_run

    if weak:
        profs = {
            n: profile_run(curve_name, REFERENCE_SIZE * n, seed=seed,
                           workload=workload)
            for n in workers
        }
        return {
            stage: weak_scaling(
                {n: profs[n][stage].split for n in workers}, I9_13900K)
            for stage in STAGES
        }
    profs = profile_run(curve_name, REFERENCE_SIZE, seed=seed, workload=workload)
    return {
        stage: strong_scaling(profs[stage].split, I9_13900K, tuple(workers))
        for stage in STAGES
    }


def _drift(measured, modeled, workers):
    """Per-stage (measured - modeled) speedup gap at the top worker count."""
    top = max(workers)
    out = {}
    for stage in STAGES:
        got = measured[stage].get(top)
        want = modeled[stage].get(top)
        if got is not None and want is not None:
            out[stage] = round(got - want, 3)
    return out


def _scaling(times, workers, fit, scale=None):
    """Speedups, the fitted serial/parallel split and the table row of
    every stage: ``stage, t(n) for each n, sp(n) for each n, serial %``."""
    speedups, fits, rows = {}, {}, {}
    for stage in STAGES:
        sp = speedups_from_times(times[stage], scale_factors=scale)
        serial, par = fit(sp)
        speedups[stage] = sp
        fits[stage] = {"serial": serial, "parallel": par}
        rows[stage] = ([stage] + [times[stage][n] for n in workers]
                       + [sp[n] for n in workers] + [100 * serial])
    return speedups, fits, rows


def _stage_usage(tasks, top, wall_top):
    """One stage's worker usage at *top* workers, from its task records:
    busy seconds, their share of the stage's lane-seconds, max-over-mean
    busy per worker, and the seconds spent moving work instead of doing
    it (queue wait plus payload / result codec)."""
    by_pid = {}
    for t in tasks:
        by_pid[t["pid"]] = by_pid.get(t["pid"], 0.0) + t["wall_s"]
    busy = sum(by_pid.values(), 0.0)
    mean = busy / len(by_pid) if by_pid else 0.0
    return {
        "busy_s": busy,
        "utilization": busy / (wall_top * top) if wall_top > 0 else 0.0,
        "imbalance": max(by_pid.values()) / mean if mean > 0 else 1.0,
        "overhead_s": sum(((t.get("queue_wait_s") or 0.0)
                           + (t.get("encode_s") or 0.0)
                           + (t.get("decode_s") or 0.0) for t in tasks), 0.0),
        "n_tasks": len(tasks),
    }


def fig6_measured(size=4096, workers=(1, 2, 4), curve="bn128",
                  workload="exponentiate", seed=0, repeats=1,
                  with_reference=True):
    """Measured strong scaling: wall time and speedup per stage at fixed
    *size*, the Amdahl serial fraction fitted per stage, and the worker
    usage at the top count — ``eff`` (speedup / top), ``busy s``,
    ``util``, ``imbal`` and ``overhead s`` (see :func:`_stage_usage`) —
    plus, with the reference on, ``model drift`` (measured minus modeled
    speedup).  ``extras["worker_telemetry"]`` is the top count's ledger
    ``workers`` block.
    """
    workers = _sweep(workers)
    top = workers[-1]
    times, telemetry = measured_stage_times(curve, size, workers,
                                            workload=workload, seed=seed,
                                            repeats=repeats)
    speedups, fits, rows = _scaling(times, workers, amdahl_fit)
    tel = telemetry[top]
    usage = {}
    for stage in STAGES:
        u = _stage_usage(tel.stage_tasks(stage), top, times[stage][top])
        u["efficiency"] = speedups[stage][top] / top
        usage[stage] = u
        rows[stage] += [u["efficiency"], u["busy_s"], u["utilization"],
                        u["imbalance"], u["overhead_s"]]
    extras = {
        "times": times,
        "speedups": speedups,
        "fits": fits,
        "usage": usage,
        "worker_telemetry": tel.to_workers_block(),
        "workers": workers,
        "size": size,
        "cpu_count": os.cpu_count(),
    }
    headers = (["stage"] + [f"t({n}w) s" for n in workers]
               + [f"sp({n}w)" for n in workers]
               + ["Amdahl ser %", "eff", "busy s", "util", "imbal",
                  "overhead s"])
    if with_reference:
        modeled = _modeled_reference(curve, workers, workload, seed)
        extras["modeled"] = modeled
        extras["drift"] = drift = _drift(speedups, modeled, workers)
        headers.append("model drift")
        for stage in STAGES:
            rows[stage].append(drift.get(stage, "-"))
    return ExperimentResult(
        ident="Fig6-measured",
        title=(f"Measured strong scaling ({curve}, n={size}, "
               f"{os.cpu_count()} cores): wall s / Speedup_SS / Amdahl; "
               f"worker usage at {top}w"),
        headers=headers,
        rows=list(rows.values()),
        extras=extras,
        floatfmt=".3f",
    )


def fig7_measured(base_size=256, workers=(1, 2, 4), curve="bn128",
                  workload="exponentiate", seed=0, repeats=1,
                  with_reference=True):
    """Measured weak scaling: constraints grow with workers
    (``size = base_size * n``), Gustafson fit per stage."""
    workers = _sweep(workers)
    times = {stage: {} for stage in STAGES}
    for n in workers:
        cell, _ = measured_stage_times(curve, base_size * n, (n,),
                                       workload=workload, seed=seed,
                                       repeats=repeats)
        for stage in STAGES:
            times[stage][n] = cell[stage][n]
    speedups, fits, rows = _scaling(times, workers, gustafson_fit,
                                    scale={n: n for n in workers})
    extras = {
        "times": times,
        "speedups": speedups,
        "fits": fits,
        "workers": workers,
        "base_size": base_size,
        "cpu_count": os.cpu_count(),
    }
    if with_reference:
        modeled = _modeled_reference(curve, workers, workload, seed, weak=True)
        extras["modeled"] = modeled
        extras["drift"] = _drift(speedups, modeled, workers)
    return ExperimentResult(
        ident="Fig7-measured",
        title=(f"Measured weak scaling ({curve}, n={base_size}*w, "
               f"{os.cpu_count()} cores): wall s / Speedup_WS / Gustafson"),
        headers=(["stage"]
                 + [f"t({n}w/n={base_size * n}) s" for n in workers]
                 + [f"sp({n}w)" for n in workers]
                 + ["Gustafson ser %"]),
        rows=list(rows.values()),
        extras=extras,
        floatfmt=".3f",
    )


def table6_parallelism_measured(size=4096, workers=(1, 2, 4), curve="bn128",
                                workload="exponentiate", seed=0, repeats=1):
    """Measured serial/parallel decomposition per stage: the Amdahl fit
    from a strong sweep at *size* and the Gustafson fit from a weak sweep
    based at ``size / max(workers)`` (so the largest weak cell matches the
    strong size)."""
    workers = _sweep(workers)
    strong = fig6_measured(size=size, workers=workers, curve=curve,
                           workload=workload, seed=seed, repeats=repeats,
                           with_reference=False)
    weak_base = max(1, size // max(workers))
    weak = fig7_measured(base_size=weak_base, workers=workers, curve=curve,
                         workload=workload, seed=seed, repeats=repeats,
                         with_reference=False)
    rows = []
    fits = {}
    for stage in STAGES:
        ss = strong.extras["fits"][stage]["serial"]
        ws = weak.extras["fits"][stage]["serial"]
        fits[stage] = {
            "ss_serial": 100 * ss, "ss_parallel": 100 * (1 - ss),
            "ws_serial": 100 * ws, "ws_parallel": 100 * (1 - ws),
        }
        rows.append([stage, 100 * ss, 100 * (1 - ss),
                     100 * ws, 100 * (1 - ws)])
    return ExperimentResult(
        ident="Table6-measured",
        title=(f"Measured serial/parallel % ({curve}, n={size}, "
               f"{os.cpu_count()} cores; SS=Amdahl, WS=Gustafson)"),
        headers=["stage", "SS ser", "SS par", "WS ser", "WS par"],
        rows=rows,
        extras={"fits": fits, "strong": strong.extras, "weak": weak.extras,
                "workers": workers, "size": size},
        floatfmt=".1f",
    )


#: Artifact name -> measured entry point (the ``run --measured`` registry).
MEASURED_ARTIFACTS = {
    "fig6": fig6_measured,
    "fig7": fig7_measured,
    "table6": table6_parallelism_measured,
}
