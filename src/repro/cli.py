"""Command-line interface: ``python -m repro <verb> [options]``.

The command surface is data.  :data:`OPTIONS` declares every option once
(flag -> argparse keywords; a verb may only override the default or ask for
the comma-list form), :data:`VERBS` maps each verb to its help line,
handler and option list, and the parser, the dispatch in :func:`main` and
the verb text of ``repro list`` are all generated from those two tables —
``python -m repro list`` and ``python -m repro <verb> --help`` are the
reference.

What the tables do not say:

- Every verb exits **2** with a one-line ``error[<code>]: ...`` message —
  never a traceback — on bad input or corrupted artifacts
  (:mod:`repro.resilience.errors`); 1 means findings or a failed gate.
- ``--timeout`` is a cooperative wall-clock budget enforced through the
  deadline machinery the service uses; an expired run exits 2 with
  ``error[timeout]``.  A killed or timed-out ``run`` resumes from the
  self-healing profile cache (docs/ROBUSTNESS.md).
- Nothing is written ambiently: ``--json`` prints the run record and
  ``--ledger PATH`` appends that same record to a JSONL file
  (docs/OBSERVABILITY.md).
- ``--workers N`` runs a verb under the parallel backend
  (docs/PARALLELISM.md); the proof bytes are identical either way.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import NamedTuple

from repro.harness import experiments
from repro.harness.circuits import WORKLOADS
from repro.harness.runner import DEFAULT_SIZES, profile_sweep

#: Artifact name -> (experiment entry point, paper reference).
_ARTIFACTS = {
    "e0": (experiments.exec_time_breakdown,
           "Section IV-B execution-time breakdown"),
    "fig4": (experiments.fig4_topdown,
             "Fig. 4 top-down microarchitecture analysis"),
    "fig5": (experiments.fig5_loads_stores, "Fig. 5 loads and stores"),
    "fig6": (experiments.fig6_strong_scaling, "Fig. 6 strong scaling"),
    "fig7": (experiments.fig7_weak_scaling, "Fig. 7 weak scaling"),
    "table2": (experiments.table2_mpki, "Table II LLC MPKI"),
    "table3": (experiments.table3_bandwidth, "Table III max memory bandwidth"),
    "table4": (experiments.table4_functions, "Table IV hot functions"),
    "table5": (experiments.table5_opcode_mix, "Table V opcode mix"),
    "table6": (experiments.table6_parallelism,
               "Table VI serial/parallel decomposition"),
}

#: Artifact name -> experiment entry point.
ARTIFACTS = {name: fn for name, (fn, _ref) in _ARTIFACTS.items()}


# -- validators ----------------------------------------------------------------------


def _number(kind, what, accept):
    """Bounded-number validator: ``kind(text)`` must parse and satisfy
    *accept*, else the usage error reads ``expected <what>, got <text>``."""
    def parse(text):
        try:
            value = kind(text)
        except ValueError:
            value = None
        if value is None or not accept(value):
            raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
        return value
    return parse


def _comma_list(item, noun):
    """Comma-list combinator: every element must pass *item*; the usage
    error names the list and carries the element's own message."""
    def parse(text):
        try:
            return tuple(item(part) for part in text.split(","))
        except argparse.ArgumentTypeError as exc:
            raise argparse.ArgumentTypeError(
                f"bad {noun} list {text!r}: {exc}") from None
    return parse


_POSITIVE_INT = _number(int, "a positive integer", lambda n: n >= 1)
_POSITIVE = _number(float, "a positive number", lambda v: v > 0)
_NON_NEGATIVE = _number(float, "a non-negative number", lambda v: v >= 0)
_PERCENT = _number(float, "a percentage in 0-100", lambda v: 0 <= v <= 100)


def _curve_name(text):
    """Validate one curve name against the registry at parse time, so a
    typo fails with the available choices instead of a deep KeyError."""
    from repro.curves import get_curve

    try:
        get_curve(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return text


def _workload_name(text):
    if text not in WORKLOADS:
        raise argparse.ArgumentTypeError(
            f"unknown workload {text!r}; choose from {sorted(WORKLOADS)}")
    return text


def _traffic_mix(text):
    """Validate a ``--mix`` spec at parse time; returns ``{kind: weight}``."""
    from repro.serve.loadgen import parse_mix

    try:
        return parse_mix(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


# -- the option table ----------------------------------------------------------------

_FLAG = dict(action="store_true")

#: Every option of every verb, declared once: flag -> ``add_argument``
#: keywords.  ``noun`` marks an option some verbs take as a comma list
#: (``opt(flag, many=True)``); defaults that differ by verb are passed by
#: the verb (``opt(flag, default)``) and appended to the help text by
#: :func:`build_parser`, so no help string restates one.
OPTIONS = {
    # positionals
    "artifact": dict(choices=sorted(ARTIFACTS) + ["all"],
                     help="paper artifact to regenerate"),
    "dir": dict(help="directory with proof.bin / vk.bin / publics.json"),
    # the workload cell
    "--curve": dict(type=_curve_name, default="bn128",
                    help="curve name (repro.curves registry)"),
    "--curves": dict(type=_comma_list(_curve_name, "curve"),
                     help="comma-separated curve names"),
    "--size": dict(type=_POSITIVE_INT,
                   help="constraint count of the workload circuit"),
    "--sizes": dict(type=_comma_list(_POSITIVE_INT, "size"),
                    help="comma-separated constraint counts (run: default "
                         "the sweep sizes; with --measured, one size, "
                         "4096 for fig6/table6 and base 256 for fig7)"),
    "--exponent": dict(type=_POSITIVE_INT, default=64,
                       help="exponent of the x^e circuit"),
    "--x": dict(type=int, default=3, help="base of the x^e circuit"),
    "--workload": dict(type=_workload_name, default="exponentiate",
                       help="workload family "
                            "(repro.harness.circuits.WORKLOADS)"),
    "--seed": dict(type=int, default=0, help="seed of every random choice"),
    # execution
    "--workers": dict(type=_POSITIVE_INT, noun="worker", metavar="N",
                      help="worker processes (unset: $REPRO_WORKERS, else "
                           "serial); the sweeping verbs take a comma list "
                           "of counts"),
    "--timeout": dict(type=_POSITIVE, metavar="SECONDS",
                      help="cooperative wall-clock budget for the whole "
                           "run; on expiry exit 2 with error[timeout]"),
    "--measured": dict(_FLAG, help="fig6/fig7/table6 only: measure real "
                                   "wall times under worker processes "
                                   "instead of evaluating the model"),
    "--repeats": dict(type=_POSITIVE_INT, default=1,
                      help="best-of-N measured runs per cell"),
    "--checkpoint-dir": dict(metavar="DIR",
                             help="checkpoint base directory "
                                  "(unset: results/checkpoints)"),
    "--fresh": dict(_FLAG, help="re-measure every cell, ignoring "
                                "checkpoints (resume is the default)"),
    # the service
    "--max-queue": dict(type=_POSITIVE_INT, default=16,
                        help="admission queue depth"),
    "--max-inflight": dict(type=_POSITIVE_INT, default=64,
                           help="in-flight cap"),
    "--deadline": dict(type=_POSITIVE, metavar="SECONDS",
                       help="per-request deadline"),
    "--queue-depths": dict(type=_comma_list(_POSITIVE_INT, "integer"),
                           default=(16,), metavar="N,N,...",
                           help="admission queue depths to sweep"),
    "--batch-windows": dict(type=_comma_list(_NON_NEGATIVE, "float"),
                            default=(0.0, 0.005), metavar="S,S,...",
                            help="verify batch windows in seconds"),
    # traffic
    "--rps": dict(type=_POSITIVE, noun="rate", metavar="R",
                  help="open-loop request rate (serve: unset idles until "
                       "SIGTERM; pareto: a comma list of offered rates)"),
    "--duration": dict(type=_POSITIVE, metavar="SECONDS",
                       help="traffic duration"),
    "--mix": dict(type=_traffic_mix, default="prove:verify",
                  help="traffic mix, e.g. prove:verify or prove=3,verify=1"),
    "--bad-verify-pct": dict(type=_PERCENT, default=0.0, metavar="PCT",
                             help="share of verify requests poisoned with "
                                  "a wrong public input (0-100)"),
    "--under-load": dict(_FLAG, help="inject the fault schedule into the "
                                     "live proving service while open-loop "
                                     "traffic flows (the service and "
                                     "traffic options apply); every "
                                     "request must resolve typed"),
    "--faults": dict(type=_POSITIVE_INT, default=4,
                     help="number of faults in the schedule"),
    "--max-attempts": dict(type=_POSITIVE_INT, default=3,
                           help="retry budget per stage"),
    # output
    "--json": dict(_FLAG, dest="as_json",
                   help="print the machine-readable record or report "
                        "instead of text"),
    "--ledger": dict(metavar="PATH",
                     help="also append the run record(s) to this JSONL file"),
    "--label": dict(help="free-form label stored in the record"),
    "--out": dict(metavar="DIR",
                  help="also write the verb's artifacts into DIR (run: "
                       "rendered tables; prove: proof.bin / vk.bin / "
                       "publics.json for 'repro verify')"),
    "--chrome-trace": dict(metavar="PATH",
                           help="also run each stage under a perf tracer "
                                "(serial) and write the modeled timeline, "
                                "one pid lane per stage, as chrome-trace "
                                "JSON"),
    "--span-trace": dict(metavar="PATH",
                         help="write the measured span tree as "
                              "chrome-trace JSON (with --workers, one lane "
                              "per worker pid)"),
    "--request-trace": dict(metavar="PATH",
                            help="write the per-request phase bars as "
                                 "chrome-trace JSON, one lane per request "
                                 "(docs/CAPACITY.md)"),
    "--top": dict(type=_POSITIVE_INT, default=8,
                  help="hot functions shown per stage"),
    "--no-alloc": dict(_FLAG, help="skip tracemalloc allocation tracking "
                                   "(cheaper)"),
    "--collapsed": dict(metavar="PATH",
                        help="collapsed-stack output path (unset: "
                             "results/prof/deep_<cell>.collapsed.txt)"),
    "--speedscope": dict(metavar="PATH",
                         help="speedscope JSON output path (unset: "
                              "results/prof/deep_<cell>.speedscope.json)"),
    "--no-artifacts": dict(_FLAG, help="do not write the flamegraph "
                                       "artifacts"),
    "--model-json": dict(metavar="PATH",
                         help="load the modeled reference from this JSON "
                              "file ({stage: {family_shares, "
                              "opcode_shares}}) instead of computing it "
                              "from repro.perf"),
    # the analyzers
    "--circuit": dict(help="analyze only this circuit (unset: every "
                           "built-in)"),
    "--strict": dict(_FLAG, help="exit nonzero on warnings too, not just "
                                 "errors"),
    "--suppress": dict(metavar="CODES",
                       help="comma-separated diagnostic codes to drop "
                            "(e.g. ZK403,RC203)"),
    "--baseline": dict(metavar="PATH",
                       help="ignore findings recorded in this baseline file"),
    "--write-baseline": dict(metavar="PATH",
                             help="record current findings as accepted and "
                                  "exit"),
    "--root": dict(metavar="PATH",
                   help="package dir or single .py file to analyze "
                        "(unset: the installed repro package)"),
    "--checks": dict(metavar="NAMES",
                     help="comma-separated check families to run (worker,"
                          "determinism,errors,guards,deadline; unset: all)"),
    "--hot-modules": dict(metavar="GLOBS",
                          help="override the RC5xx hot-module globs "
                               "(comma-separated fnmatch patterns)"),
    "--all-modules": dict(_FLAG, help="also list clean modules in the text "
                                      "report"),
}


def opt(flag, default=None, many=False):
    """A verb's use of *flag* with its own *default* and / or in the
    comma-list form of the declared element type."""
    return flag, default, many


def _cell(size):
    return ["--curve", opt("--size", size), "--workload", "--seed"]


_SERVICE = ["--workers", "--max-queue", "--max-inflight", "--deadline"]
_RECORD = ["--json", "--ledger", "--label"]
_FINDINGS = ["--json", "--suppress", "--baseline", "--write-baseline"]


def _traffic(rps, duration):
    return [opt("--rps", rps), opt("--duration", duration), "--mix"]


# -- handlers ------------------------------------------------------------------------


def cmd_list(_args, out=print):
    out("artifact  | paper reference")
    out("----------+-------------------------------------------")
    for name, (_fn, ref) in sorted(_ARTIFACTS.items()):
        out(f"{name:9s} | {ref}")
    out("")
    out("verbs (python -m repro <verb> --help):")
    for name, verb in VERBS.items():
        out(f"  {name:16s}{verb.help}")
    return 0


def cmd_run(args, out=print):
    from repro.resilience.retry import deadline_scope

    with deadline_scope(args.timeout, stage="run") as dl:
        if dl is not None:
            dl.check()
        if args.measured:
            return _run_measured(args, out)
        names = (sorted(ARTIFACTS) if args.artifact == "all"
                 else [args.artifact])
        sizes = args.sizes or DEFAULT_SIZES
        out(f"profiling sweep: curves={args.curves} sizes={sizes} ...")
        sweep = profile_sweep(curve_names=args.curves, sizes=sizes,
                              seed=args.seed, workload=args.workload)
    for name in names:
        text = ARTIFACTS[name](sweep).render()
        out("")
        out(text)
        if args.out:
            os.makedirs(args.out, exist_ok=True)
            with open(os.path.join(args.out, f"{name}.txt"), "w") as f:
                f.write(text + "\n")
    return 0


def _run_measured(args, out):
    from repro.harness.measured import MEASURED_ARTIFACTS

    names = (sorted(MEASURED_ARTIFACTS) if args.artifact == "all"
             else [args.artifact])
    bad = sorted(set(names) - set(MEASURED_ARTIFACTS))
    if bad:
        out(f"--measured supports {'/'.join(sorted(MEASURED_ARTIFACTS))}, "
            f"not {'/'.join(bad)} (the other artifacts are counter-based, "
            f"not timing-based)")
        return 2
    workers = args.workers or (1, 2, 4)
    curve = args.curves[0]
    for name in names:
        kwargs = dict(workers=workers, curve=curve, workload=args.workload,
                      seed=args.seed, repeats=args.repeats)
        if name == "fig7":
            kwargs["base_size"] = args.sizes[0] if args.sizes else 256
        else:
            kwargs["size"] = args.sizes[0] if args.sizes else 4096
        if name == "fig6" and max(workers) > 1:
            # Strong-scaling runs double as the worker-telemetry source:
            # the sweep prints pool utilization below.
            kwargs["telemetry"] = True
        out(f"measured {name}: curve={curve} workers={workers} "
            f"{'base_size' if name == 'fig7' else 'size'}="
            f"{kwargs.get('base_size', kwargs.get('size'))} "
            f"(cores: {os.cpu_count()}) ...")
        result = MEASURED_ARTIFACTS[name](**kwargs)
        text = result.render()
        out("")
        out(text)
        fits = result.extras["fits"]
        if name in ("fig6", "fig7"):
            law = "Amdahl" if name == "fig6" else "Gustafson"
            for stage, fit in fits.items():
                out(f"  {law} fit: {stage:10s} serial {100 * fit['serial']:5.1f}% "
                    f"parallel {100 * fit['parallel']:5.1f}%")
        drift = result.extras.get("drift")
        if drift:
            out(f"  model drift at {max(workers)}w (measured - modeled "
                f"speedup): " + "  ".join(
                    f"{s}{v:+.2f}" for s, v in drift.items()))
        telemetry = result.extras.get("worker_telemetry") or {}
        top_block = telemetry.get(str(max(workers)))
        if top_block:
            out(f"  worker telemetry at {max(workers)}w: utilization "
                f"{top_block['utilization']:.2f}, imbalance "
                f"{top_block['imbalance']:.2f}, "
                f"{top_block['totals']['tasks']} task(s) over "
                f"{top_block['totals']['maps']} map(s)")
        if args.out:
            os.makedirs(args.out, exist_ok=True)
            with open(os.path.join(args.out, f"{name}_measured.txt"), "w") as f:
                f.write(text + "\n")
    return 0


def cmd_prove(args, out=print):
    from repro.curves import get_curve
    from repro.harness.circuits import build_exponentiate
    from repro.resilience.retry import deadline_scope
    from repro.workflow import STAGES, Workflow

    curve = get_curve(args.curve)
    builder, inputs = build_exponentiate(curve, args.exponent, x_value=args.x)
    # --timeout installs a cooperative deadline for the whole run: the hot
    # kernels poll it mid-stage, and the explicit checks below enforce it
    # at stage boundaries for stages with no poll points.
    with deadline_scope(args.timeout, stage="prove") as dl:
        if dl is not None:
            dl.check()
        with Workflow(curve, builder, inputs, seed=0,
                      workers=args.workers) as wf:
            for stage in STAGES:
                # The workflow already times each stage
                # (StageResult.elapsed); report that instead of re-timing
                # around the call.
                result = wf.run_stage(stage)
                out(f"{stage:10s} {result.elapsed:8.3f}s")
                if dl is not None:
                    dl.check()
    out(f"proof: {wf.proof.size_bytes()} bytes; accepted: {wf.accepted}")
    if args.out and wf.accepted:
        import json

        from repro.groth16 import public_inputs
        from repro.groth16.serialize import proof_to_bytes, vk_to_bytes

        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "proof.bin"), "wb") as f:
            f.write(proof_to_bytes(wf.proof))
        with open(os.path.join(args.out, "vk.bin"), "wb") as f:
            f.write(vk_to_bytes(wf.vk))
        with open(os.path.join(args.out, "publics.json"), "w") as f:
            json.dump(public_inputs(wf.circuit, wf.witness), f)
            f.write("\n")
        out(f"artifacts: proof.bin vk.bin publics.json written to {args.out}")
    return 0 if wf.accepted else 1


def cmd_verify(args, out=print):
    import json

    from repro.groth16.serialize import proof_from_bytes, vk_from_bytes
    from repro.groth16.verifier import verify
    from repro.resilience.errors import ArtifactCorruption
    from repro.resilience.retry import deadline_scope

    def _read(name, mode="rb"):
        with open(os.path.join(args.dir, name), mode) as f:
            return f.read()

    with deadline_scope(args.timeout, stage="verify") as dl:
        if dl is not None:
            dl.check()
        proof = proof_from_bytes(_read("proof.bin"))
        vk = vk_from_bytes(_read("vk.bin"))
        try:
            publics = json.loads(_read("publics.json", "r"))
        except ValueError as exc:
            raise ArtifactCorruption(
                f"unparseable publics.json: {exc}", artifact="publics",
            ) from exc
        if (not isinstance(publics, list)
                or not all(isinstance(v, int) for v in publics)):
            raise ArtifactCorruption(
                "publics.json must be a list of integers", artifact="publics",
            )
        if dl is not None:
            dl.check()
        accepted = verify(vk, proof, publics)
    out(f"accepted: {accepted}")
    return 0 if accepted else 1


def cmd_profile(args, out=print):
    from contextlib import nullcontext

    from repro.curves import get_curve
    from repro.harness.circuits import build_workload
    from repro.obs import format as obs_format
    from repro.obs import ledger, metrics, spans
    from repro.obs import worker as obs_worker
    from repro.perf.export import regions_to_spans, spans_to_chrome_trace
    from repro.perf.trace import Tracer
    from repro.workflow import STAGES, Workflow

    curve = get_curve(args.curve)
    builder, inputs = build_workload(args.workload, curve, args.size)
    wf = Workflow(curve, builder, inputs, seed=args.seed, workers=args.workers)
    registry = metrics.MetricsRegistry()
    tracers = {}
    label = f"profile:{args.curve}/{args.size}"
    collect = (obs_worker.collecting_tasks(label=label)
               if args.workers is not None and args.workers > 1
               else nullcontext())
    with wf, collect as tel, metrics.collecting(registry), \
            spans.recording(label) as rec:
        for stage in STAGES:
            # Tracing perturbs wall time, so tracers are attached only when
            # a modeled chrome-trace was asked for; span wall times then
            # describe the *traced* run (ledgers stay self-consistent
            # because the gate compares like against like).
            tracer = Tracer(label=f"{label}/{stage}") if args.chrome_trace else None
            wf.run_stage(stage, tracer)
            if tracer is not None:
                tracers[stage] = tracer
    if wf.accepted is not True:
        out("profiled workflow produced a rejected proof")
        return 1

    record = ledger.make_record(
        kind="profile",
        curve=args.curve,
        size=args.size,
        workload=args.workload,
        seed=args.seed,
        stages=[wf.results[s].to_record() for s in STAGES],
        metrics=registry.snapshot(),
        label=args.label,
        workers=(tel.to_workers_block()
                 if tel is not None and tel.tasks else None),
    )
    if args.chrome_trace:
        obs_format.write_artifact(
            args.chrome_trace,
            spans_to_chrome_trace(regions_to_spans(tracers)),
            out, "chrome-trace", quiet=True)
    if args.span_trace:
        obs_format.write_artifact(args.span_trace,
                                  spans_to_chrome_trace([rec.root]),
                                  out, "span-trace", quiet=True)

    obs_format.emit_record(record, args.as_json, out, render=[
        lambda: spans.render_spans(rec.root),
        registry.render_text,
    ])
    if args.ledger:
        obs_format.append_record(record, args.ledger, out, quiet=args.as_json)
    return 0


def cmd_deep_profile(args, out=print):
    from repro.obs import format as obs_format
    from repro.obs import ledger, prof
    from repro.perf.export import collapsed_to_text, to_speedscope
    from repro.workflow import STAGES

    wf, profiler = prof.deep_profile_run(
        args.curve, args.size, workload=args.workload, seed=args.seed,
        alloc=not args.no_alloc,
    )
    record = ledger.make_record(
        kind="deep-profile",
        curve=args.curve,
        size=args.size,
        workload=args.workload,
        seed=args.seed,
        stages=[wf.results[s].to_record() for s in STAGES],
        metrics=None,
        label=args.label,
        profile=profiler.to_profile_block(),
    )

    obs_format.emit_record(record, args.as_json, out, render=[
        lambda: prof.render_deep_profile(profiler, top=args.top),
    ])
    if not args.no_artifacts:
        cell = f"deep_{args.workload}_{args.curve}_{args.size}"
        base = os.path.join("results", "prof")
        stacks = profiler.stage_stacks()
        obs_format.write_artifact(
            args.collapsed or os.path.join(base, f"{cell}.collapsed.txt"),
            collapsed_to_text(stacks), out, "collapsed", quiet=args.as_json)
        obs_format.write_artifact(
            args.speedscope or os.path.join(base, f"{cell}.speedscope.json"),
            to_speedscope(stacks, name=cell), out, "speedscope",
            quiet=args.as_json)
    if args.ledger:
        obs_format.append_record(record, args.ledger, out, quiet=args.as_json)
    return 0


def cmd_report(args, out=print):
    import json

    from repro.obs import drift, prof

    modeled_from_file = None
    if args.model_json:
        with open(args.model_json) as f:
            modeled_from_file = json.load(f)

    reports = []
    for curve in args.curves:
        for size in args.sizes:
            # Allocation tracking is irrelevant to drift and not free;
            # measure the cheapest profile that still attributes time.
            _wf, profiler = prof.deep_profile_run(
                curve, size, workload=args.workload, seed=args.seed,
                alloc=False,
            )
            modeled = (modeled_from_file
                       if modeled_from_file is not None
                       else drift.model_reference(curve, size,
                                                  workload=args.workload,
                                                  seed=args.seed))
            reports.append(drift.check_drift(
                profiler.measured_blocks(), modeled,
                curve=curve, size=size, workload=args.workload,
            ))

    if args.as_json:
        out(json.dumps([r.to_dict() for r in reports], indent=2,
                       sort_keys=True))
    else:
        out("\n\n".join(r.render_text() for r in reports))
    return 0 if all(r.ok for r in reports) else 1


def cmd_chaos(args, out=print):
    from repro.resilience.chaos import run_chaos

    if args.under_load:
        from repro.serve import run_chaos_load

        report = run_chaos_load(
            seed=args.seed, n_faults=args.faults, rps=args.rps,
            duration_s=args.duration, mix=args.mix, curve=args.curve,
            size=args.size, workload=args.workload, workers=args.workers,
            max_queue=args.max_queue, max_inflight=args.max_inflight,
            deadline_s=args.deadline, bad_verify_pct=args.bad_verify_pct,
            max_attempts=args.max_attempts,
        )
        out(report.to_json(indent=2) if args.as_json else report.render_text())
        # 0: every request resolved typed; 1: a hang or an untyped escape.
        return 0 if report.acceptable else 1

    report = run_chaos(
        seed=args.seed, n_faults=args.faults, curve=args.curve,
        size=args.size, workload=args.workload,
        max_attempts=args.max_attempts, workers=args.workers,
    )
    out(report.to_json(indent=2) if args.as_json else report.render_text())
    # 0: the resilience contract held (recovered, or failed *typed*);
    # 1: a bare exception escaped or the proof was silently rejected.
    return 0 if report.acceptable else 1


def _service(args):
    from repro.serve import ProvingService

    return ProvingService(
        curve=args.curve, size=args.size, workload=args.workload,
        workers=args.workers, max_queue=args.max_queue,
        max_inflight=args.max_inflight, default_deadline_s=args.deadline,
        seed=args.seed)


def cmd_serve(args, out=print):
    import asyncio
    import signal

    from repro.serve import run_loadtest

    service = _service(args)

    async def _main():
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, stop.set)
            except (NotImplementedError, RuntimeError):
                # Platforms/loops without signal-handler support fall
                # back to KeyboardInterrupt for SIGINT.
                pass
        await service.start()
        out(f"serving: curve={args.curve} size={args.size} "
            f"workload={args.workload} workers={args.workers or 1} "
            f"max_queue={args.max_queue} max_inflight={args.max_inflight}"
            + (f" deadline={args.deadline}s" if args.deadline else "")
            + " (SIGTERM drains)")
        traffic = None
        waiters = [loop.create_task(stop.wait())]
        if args.rps is not None:
            traffic = loop.create_task(run_loadtest(
                service, rps=args.rps, duration_s=args.duration,
                mix=args.mix, seed=args.seed, stop=stop))
            waiters.append(traffic)
        await asyncio.wait(waiters, return_when=asyncio.FIRST_COMPLETED)
        out("draining: admission closed, finishing in-flight jobs ...")
        await service.drain()
        if traffic is not None:
            # Requests the generator issues after the drain are shed
            # typed, so the report always completes.
            load = await traffic
            out(load.render_text())
        st = service.stats()
        counts = st["counts"]
        out(f"drained clean: {counts['ok']} ok / {counts['submitted']} "
            f"submitted, outstanding={st['outstanding']}")
        return 0

    return asyncio.run(_main())


def cmd_loadtest(args, out=print):
    import asyncio

    from repro.obs import format as obs_format
    from repro.obs import ledger, metrics
    from repro.serve import run_loadtest

    registry = metrics.MetricsRegistry()
    service = _service(args)

    async def _main():
        await service.start()
        try:
            with metrics.collecting(registry):
                return await run_loadtest(
                    service, rps=args.rps, duration_s=args.duration,
                    mix=args.mix, seed=args.seed,
                    bad_verify_pct=args.bad_verify_pct)
        finally:
            await service.drain()

    load = asyncio.run(_main())
    record = ledger.make_record(
        kind="loadtest",
        curve=args.curve,
        size=args.size,
        workload=args.workload,
        seed=args.seed,
        stages=[],
        metrics=registry.snapshot(),
        label=args.label,
        service=load.to_service_block(),
    )
    obs_format.emit_record(record, args.as_json, out, render=[
        load.render_text,
    ])
    if args.request_trace:
        from repro.perf.export import requests_to_spans, spans_to_chrome_trace

        obs_format.write_artifact(
            args.request_trace,
            spans_to_chrome_trace(requests_to_spans(load.results)),
            out, "request-trace", quiet=args.as_json)
    if args.ledger:
        obs_format.append_record(record, args.ledger, out, quiet=args.as_json)
    # 1 on a typed-resolution breach: the loadtest doubles as a liveness
    # gate for the serving layer.
    return 1 if load.unresolved else 0


def cmd_pareto(args, out=print):
    from repro.obs.capacity import run_capacity_sweep

    total = (len(args.workers) * len(args.batch_windows)
             * len(args.queue_depths) * len(args.rps))
    if not args.as_json:
        out(f"capacity sweep: {total} cell(s) — "
            f"workers={','.join(map(str, args.workers))} "
            f"batch_windows={','.join(f'{w:g}' for w in args.batch_windows)} "
            f"queue_depths={','.join(map(str, args.queue_depths))} "
            f"rps={','.join(f'{r:g}' for r in args.rps)} "
            f"duration={args.duration:g}s seed={args.seed}"
            + (" (fresh)" if args.fresh else " (resumable)"))

    def progress(i, n, cell):
        if not args.as_json:
            out(f"  [{i}/{n}] {cell.config_label}: "
                f"{cell.throughput_rps:.2f} ok/s "
                f"p99={cell.p99_s * 1e3:.1f}ms [{cell.diagnosis}]"
                + (" (resumed)" if cell.resumed else ""))

    report = run_capacity_sweep(
        workers_list=args.workers, batch_windows=args.batch_windows,
        queue_depths=args.queue_depths, rps_list=args.rps,
        duration_s=args.duration, curve=args.curve, size=args.size,
        workload=args.workload, seed=args.seed, mix=args.mix,
        deadline_s=args.deadline, max_inflight=args.max_inflight,
        checkpoint_dir=args.checkpoint_dir, resume=not args.fresh,
        ledger_path=args.ledger, progress=progress)
    if args.as_json:
        out(report.to_json(indent=2))
    else:
        out("")
        out(report.render_text())
        if args.ledger:
            out(f"ledger: capacity records in {args.ledger}")
        out(f"checkpoints: {report.checkpoint_dir}")
    # 1 when nothing completed or the phase accounting broke: a sweep
    # whose breakdowns do not add up diagnoses nothing.
    return 0 if report.ok else 1


def cmd_parallel_report(args, out=print):
    from repro.obs import format as obs_format
    from repro.obs.worker import build_parallel_report

    cores = os.cpu_count() or 1
    top = max(args.workers)
    if top > cores:
        out(f"parallel-report: note — sweeping up to {top} workers on "
            f"{cores} core(s); efficiency at oversubscribed counts "
            f"reflects time-slicing, not the algorithm")
    report = build_parallel_report(
        curve=args.curve, size=args.size, workers=args.workers,
        workload=args.workload, seed=args.seed, repeats=args.repeats)
    obs_format.emit_record(report.to_dict(), args.as_json, out,
                           render=[report.render_text])
    return 0


def cmd_lint(args, out=print):
    from repro.analyze import (
        analyze,
        load_baseline,
        render_reports,
        reports_to_json,
        write_baseline,
    )
    from repro.circuit import compile_circuit
    from repro.curves import get_curve
    from repro.harness.circuits import lint_targets

    curve = get_curve(args.curve)
    targets = lint_targets(curve)
    if args.circuit is not None:
        if args.circuit not in targets:
            out(f"unknown circuit {args.circuit!r}; "
                f"choose from {', '.join(sorted(targets))}")
            return 2
        targets = {args.circuit: targets[args.circuit]}

    suppress = set(args.suppress.split(",")) if args.suppress else set()
    baseline = load_baseline(args.baseline) if args.baseline else None

    reports = []
    for name in sorted(targets):
        builder, _inputs, expected = targets[name]
        circuit = compile_circuit(builder)
        reports.append(analyze(
            circuit,
            expected_constraints=expected,
            suppress=suppress,
            baseline=baseline,
        ))

    if args.write_baseline:
        n = write_baseline(args.write_baseline, reports)
        out(f"wrote {n} fingerprint(s) to {args.write_baseline}")
        return 0

    if args.as_json:
        out(reports_to_json(reports))
    else:
        out(render_reports(reports))
    failed = any(
        r.has_errors or (args.strict and r.warnings()) for r in reports
    )
    return 1 if failed else 0


def cmd_codelint(args, out=print):
    from dataclasses import replace

    from repro.analyze import load_baseline, write_baseline
    from repro.analyze.code import CodelintConfig, analyze_code
    from repro.obs.format import (
        diagnostic_reports_to_json,
        render_diagnostic_reports,
    )

    config = CodelintConfig()
    if args.hot_modules:
        config = replace(
            config, hot_modules=tuple(args.hot_modules.split(",")))
    passes = args.checks.split(",") if args.checks else None
    suppress = set(args.suppress.split(",")) if args.suppress else set()
    baseline = load_baseline(args.baseline) if args.baseline else None

    reports = analyze_code(args.root, config=config, passes=passes,
                           suppress=suppress, baseline=baseline)

    if args.write_baseline:
        n = write_baseline(args.write_baseline, reports)
        out(f"wrote {n} fingerprint(s) to {args.write_baseline}")
        return 0

    if args.as_json:
        out(diagnostic_reports_to_json(reports))
    else:
        out(render_diagnostic_reports(reports, noun="module",
                                      skip_clean=not args.all_modules))
    failed = any(r.diagnostics for r in reports)
    return 1 if failed else 0


# -- the verb table ------------------------------------------------------------------


class Verb(NamedTuple):
    help: str
    handler: object
    options: list


#: The command surface: verb -> (help, handler, options).  An option is a
#: flag of :data:`OPTIONS` or an :func:`opt` carrying the verb's own
#: default / list form.
VERBS = {
    "list": Verb("list the regenerable paper artifacts and the verbs",
                 cmd_list, []),
    "run": Verb(
        "regenerate one paper artifact (or 'all'); --measured times "
        "fig6/fig7/table6 on real worker processes",
        cmd_run,
        ["artifact", "--sizes", opt("--curves", ("bn128", "bls12_381")),
         "--out", "--measured", opt("--workers", many=True), "--workload",
         "--seed", "--repeats", "--timeout"]),
    "prove": Verb("run the five-stage protocol once and report timings",
                  cmd_prove,
                  ["--curve", "--exponent", "--x", "--out", "--workers",
                   "--timeout"]),
    "verify": Verb(
        "verify artifacts saved by 'repro prove --out'; corrupted blobs "
        "fail with a typed error, exit 2",
        cmd_verify, ["dir", "--timeout"]),
    "lint": Verb(
        "statically analyze the built-in circuits for soundness and cost "
        "smells (docs/ANALYZER.md)",
        cmd_lint, ["--circuit", "--curve", "--strict", *_FINDINGS]),
    "codelint": Verb(
        "statically analyze the codebase itself (worker-safety, "
        "determinism, error discipline, guards, deadline polls); exit 1 "
        "on any finding (docs/CODELINT.md)",
        cmd_codelint,
        ["--root", "--checks", "--hot-modules", "--all-modules",
         *_FINDINGS]),
    "profile": Verb(
        "run the five stages under runtime telemetry: span tree, metrics "
        "and a fingerprinted run record (docs/OBSERVABILITY.md)",
        cmd_profile,
        [*_cell(64), "--workers", *_RECORD, "--chrome-trace",
         "--span-trace"]),
    "deep-profile": Verb(
        "run the five stages under the deep profiler (hot functions, "
        "opcode mix, allocations) and write flamegraphs; keep --size "
        "small (docs/PROFILING.md)",
        cmd_deep_profile,
        [*_cell(8), "--top", "--no-alloc", "--collapsed", "--speedscope",
         "--no-artifacts", *_RECORD]),
    "report": Verb(
        "gate the cost model's Tables IV/V against deep-profiled "
        "reality; exit 1 on model drift (docs/PROFILING.md)",
        cmd_report,
        [opt("--sizes", (64,)), opt("--curves", ("bn128",)), "--workload",
         "--seed", "--model-json", "--json"]),
    "parallel-report": Verb(
        "measured worker sweep -> per-worker busy time, efficiency, "
        "imbalance and dispatch overhead; 1 worker is always swept, it "
        "anchors speedup (docs/PARALLELISM.md)",
        cmd_parallel_report,
        [*_cell(4096), opt("--workers", (1, 2, 4), many=True), "--repeats",
         "--json"]),
    "chaos": Verb(
        "run the pipeline (--under-load: the live service) under a "
        "seeded fault schedule; exit 0 iff every fault ends typed "
        "(docs/ROBUSTNESS.md)",
        cmd_chaos,
        [*_cell(32), "--faults", "--max-attempts", "--json", "--under-load",
         *_SERVICE, *_traffic(8.0, 2.0), "--bad-verify-pct"]),
    "serve": Verb(
        "run the fault-tolerant async proving service; SIGTERM drains "
        "in-flight jobs and exits 0 (docs/SERVING.md)",
        cmd_serve, [*_cell(64), *_SERVICE, *_traffic(None, 5.0)]),
    "loadtest": Verb(
        "open-loop load against the proving service: latency "
        "percentiles, shedding, phase breakdown; exit 1 on any "
        "typed-resolution breach (docs/SERVING.md)",
        cmd_loadtest,
        [*_cell(32), *_SERVICE, *_traffic(8.0, 5.0), "--bad-verify-pct",
         *_RECORD, "--request-trace"]),
    "pareto": Verb(
        "seeded capacity sweep over workers x batch windows x queue "
        "depths x rps: the throughput-vs-p99 frontier and its knee "
        "(docs/CAPACITY.md)",
        cmd_pareto,
        [*_cell(32), opt("--workers", (1,), many=True), "--batch-windows",
         "--queue-depths", opt("--rps", (8.0,), many=True),
         opt("--duration", 2.0), "--mix", "--deadline", "--max-inflight",
         "--checkpoint-dir", "--fresh", "--ledger", "--json"]),
}


def _shown(default):
    if isinstance(default, tuple):
        return ",".join(_shown(v) for v in default)
    return f"{default:g}" if isinstance(default, float) else str(default)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Performance Analysis of Zero-Knowledge "
                    "Proofs' (IISWC 2024)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, verb in VERBS.items():
        verb_parser = sub.add_parser(name, help=verb.help,
                                     description=verb.help)
        for entry in verb.options:
            flag, default, many = (entry if isinstance(entry, tuple)
                                   else (entry, None, False))
            spec = dict(OPTIONS[flag])
            noun = spec.pop("noun", None)
            if many:
                spec["type"] = _comma_list(spec["type"], noun)
                spec["metavar"] = ",".join([spec["metavar"]] * 2) + ",..."
            if default is not None:
                spec["default"] = default
            if spec.get("default") is not None:
                spec["help"] += f" (default: {_shown(spec['default'])})"
            verb_parser.add_argument(flag, **spec)
    return parser


def main(argv=None, out=print):
    from repro.resilience.errors import ReproError

    args = build_parser().parse_args(argv)
    try:
        return VERBS[args.command].handler(args, out=out)
    except ReproError as exc:
        # Typed failures (bad input, corrupted artifacts) are reported as
        # one line, never a traceback; exit 2 mirrors argparse usage errors.
        print(exc.one_line(), file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        text = " ".join(str(exc).split()) or type(exc).__name__
        print(f"error[{'os' if isinstance(exc, OSError) else 'value'}]: {text}",
              file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
