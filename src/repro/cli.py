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
#: (``opt(flag, many=True)``, the only list form; it never inherits the
#: scalar default); defaults that differ by verb are passed by the verb
#: (``opt(flag, default)``) and appended to the help text by
#: :func:`build_parser`, so no help string restates one.
OPTIONS = {
    # positionals
    "artifact": dict(choices=sorted(ARTIFACTS) + ["all"],
                     help="paper artifact to regenerate"),
    "dir": dict(help="directory with proof.bin / vk.bin / publics.json"),
    # the workload cell
    "--curve": dict(type=_curve_name, default="bn128", noun="curve",
                    metavar="CURVE",
                    help="curve name (repro.curves registry); run takes "
                         "a comma list (unset sweeps both curves, or "
                         "bn128 with --measured)"),
    "--size": dict(type=_POSITIVE_INT, noun="size", metavar="SIZE",
                   help="constraint count of the workload circuit; run "
                        "takes a comma list (unset is the sweep sizes, or "
                        "the artifact's own with --measured, which takes "
                        "one)"),
    "--exponent": dict(type=_POSITIVE_INT, default=64,
                       help="exponent of the x^e circuit"),
    "--workload": dict(type=_workload_name, default="exponentiate",
                       help="workload family "
                            "(repro.harness.circuits.WORKLOADS)"),
    "--seed": dict(type=int, default=0, help="seed of every random choice"),
    # execution
    "--workers": dict(type=_POSITIVE_INT, noun="worker", metavar="N",
                      help="worker processes (unset: serial); run "
                           "--measured takes a comma list of counts and "
                           "always sweeps 1"),
    "--timeout": dict(type=_POSITIVE, metavar="SECONDS",
                      help="cooperative wall-clock budget for the whole "
                           "run; on expiry exit 2 with error[timeout]"),
    "--measured": dict(_FLAG, help="fig6/fig7/table6 only: measure real "
                                   "wall times under worker processes "
                                   "instead of evaluating the model (fig6 "
                                   "adds the worker-usage columns)"),
    # the service
    "--deadline": dict(type=_POSITIVE, metavar="SECONDS",
                       help="per-request deadline"),
    # traffic
    "--rps": dict(type=_POSITIVE, default=8.0, metavar="R",
                  help="open-loop request rate"),
    "--duration": dict(type=_POSITIVE, default=5.0, metavar="SECONDS",
                       help="traffic duration"),
    "--mix": dict(type=_traffic_mix, default="prove:verify",
                  help="traffic mix, e.g. prove:verify or prove=3,verify=1"),
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
                                 "(docs/SERVING.md)"),
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
    # the analyzers
    "--circuit": dict(help="analyze only this circuit (unset: every "
                           "built-in)"),
}


def opt(flag, default=None, many=False):
    """A verb's use of *flag* with its own *default* and / or in the
    comma-list form of the declared element type."""
    return flag, default, many


def _cell(size):
    return ["--curve", opt("--size", size), "--workload", "--seed"]


_RECORD = ["--json", "--ledger", "--label"]


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
        curves = args.curve or ("bn128", "bls12_381")
        sizes = args.size or DEFAULT_SIZES
        out(f"profiling sweep: curves={curves} sizes={sizes} ...")
        sweep = profile_sweep(curve_names=curves, sizes=sizes,
                              seed=args.seed, workload=args.workload)
    for name in names:
        result = ARTIFACTS[name](sweep)
        out("")
        out(result.render())
        if args.out:
            os.makedirs(args.out, exist_ok=True)
            with open(os.path.join(args.out, f"{name}.txt"), "w") as f:
                f.write(result.render(artifact=True) + "\n")
    return 0


def _run_measured(args, out):
    from repro.harness.measured import MEASURED_ARTIFACTS

    if args.artifact != "all" and args.artifact not in MEASURED_ARTIFACTS:
        raise ValueError(
            f"--measured supports {'/'.join(sorted(MEASURED_ARTIFACTS))}, "
            f"not {args.artifact} (the other artifacts are counter-based, "
            f"not timing-based)")
    # Unset options keep the artifact's own defaults (harness.measured).
    given = {}
    for flag, values in (("curve", args.curve), ("size", args.size)):
        if values:
            if len(values) > 1:
                raise ValueError(f"--measured takes one --{flag}, got "
                                 f"{','.join(str(v) for v in values)}")
            given[flag] = values[0]
    if args.workers:
        given["workers"] = args.workers
    names = (sorted(MEASURED_ARTIFACTS) if args.artifact == "all"
             else [args.artifact])
    for name in names:
        kwargs = dict(given, workload=args.workload, seed=args.seed)
        if name == "fig7" and "size" in kwargs:
            kwargs["base_size"] = kwargs.pop("size")
        text = MEASURED_ARTIFACTS[name](**kwargs).render()
        out("")
        out(text)
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
    builder, inputs = build_exponentiate(curve, args.exponent)
    # --timeout installs a cooperative deadline for the whole run: the hot
    # kernels poll it mid-stage, and the stage runner at every stage's
    # entry and exit, so stages with no poll points end at their boundary.
    with deadline_scope(args.timeout, stage="prove"), \
            Workflow(curve, builder, inputs, seed=0,
                     workers=args.workers) as wf:
        for stage in STAGES:
            # The workflow already times each stage (StageResult.elapsed);
            # report that instead of re-timing around the call.
            result = wf.run_stage(stage)
            out(f"{stage:10s} {result.elapsed:8.3f}s")
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
    from repro.obs import drift, ledger, prof
    from repro.obs import format as obs_format
    from repro.perf.export import collapsed_to_text, to_speedscope
    from repro.workflow import STAGES

    wf, profiler = prof.deep_profile_run(
        args.curve, args.size, workload=args.workload, seed=args.seed,
        alloc=not args.no_alloc,
    )
    # The drift gate judges the profile just taken against the cost
    # model's Tables IV/V for the same cell; allocation tracking does not
    # move the verdict.
    verdict = drift.check_drift(
        profiler.measured_blocks(),
        drift.model_reference(args.curve, args.size, workload=args.workload,
                              seed=args.seed),
        curve=args.curve, size=args.size, workload=args.workload,
    )
    profile = profiler.to_profile_block()
    profile["drift"] = verdict.to_dict()
    record = ledger.make_record(
        kind="deep-profile",
        curve=args.curve,
        size=args.size,
        workload=args.workload,
        seed=args.seed,
        stages=[wf.results[s].to_record() for s in STAGES],
        metrics=None,
        label=args.label,
        profile=profile,
    )

    obs_format.emit_record(record, args.as_json, out, render=[
        lambda: prof.render_deep_profile(profiler, top=args.top),
        verdict.render_text,
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
    return 0 if verdict.ok else 1


def cmd_loadtest(args, out=print):
    import asyncio
    import signal

    from repro.obs import format as obs_format
    from repro.obs import ledger, metrics
    from repro.serve import ProvingService, run_loadtest

    registry = metrics.MetricsRegistry()
    service = ProvingService(
        curve=args.curve, size=args.size, workload=args.workload,
        workers=args.workers, default_deadline_s=args.deadline,
        seed=args.seed)

    # Text mode narrates the service's life; --json keeps stdout one
    # JSON document.
    say = (lambda _line: None) if args.as_json else out

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
        say(f"serving: curve={args.curve} size={args.size} "
            f"workload={args.workload} workers={args.workers or 1} "
            f"max_queue={service.max_queue} "
            f"max_inflight={service.max_inflight}"
            + (f" deadline={args.deadline}s" if args.deadline else "")
            + " (SIGTERM drains)")
        try:
            with metrics.collecting(registry):
                # A signal ends the arrival schedule; admitted requests
                # still resolve and land in the report.
                return await run_loadtest(
                    service, rps=args.rps, duration_s=args.duration,
                    mix=args.mix, seed=args.seed, stop=stop)
        finally:
            say("draining: admission closed, finishing in-flight jobs ...")
            await service.drain()
            st = service.stats()
            say(f"drained clean: {st['counts']['ok']} ok / "
                f"{st['counts']['submitted']} submitted, "
                f"outstanding={st['outstanding']}")

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
    obs_format.emit_record(record, args.as_json, out,
                           render=[load.render_text])
    if args.request_trace:
        from repro.perf.export import requests_to_spans, spans_to_chrome_trace

        obs_format.write_artifact(
            args.request_trace,
            spans_to_chrome_trace(requests_to_spans(load.results)),
            out, "request-trace", quiet=args.as_json)
    if args.ledger:
        obs_format.append_record(record, args.ledger, out, quiet=args.as_json)
    # 1 on any breach of the serving contract (LoadReport.violations): the
    # loadtest doubles as the liveness gate of the serving layer.
    return 1 if load.violations else 0


def cmd_lint(args, out=print):
    from repro.analyze import analyze, render_reports, reports_to_json
    from repro.circuit import compile_circuit
    from repro.curves import get_curve
    from repro.harness.circuits import lint_targets

    curve = get_curve(args.curve)
    targets = lint_targets(curve)
    if args.circuit is not None:
        if args.circuit not in targets:
            raise ValueError(f"unknown circuit {args.circuit!r}; "
                             f"choose from {', '.join(sorted(targets))}")
        targets = {args.circuit: targets[args.circuit]}

    reports = []
    for name in sorted(targets):
        builder, _inputs, expected = targets[name]
        reports.append(analyze(compile_circuit(builder),
                               expected_constraints=expected))

    if args.as_json:
        out(reports_to_json(reports))
    else:
        out(render_reports(reports))
    # Warnings fail too: info findings are the only ones a clean
    # built-in may carry.
    failed = any(r.has_errors or r.warnings() for r in reports)
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
        "fig6/fig7/table6 on real worker processes (docs/PARALLELISM.md)",
        cmd_run,
        ["artifact", opt("--size", many=True), opt("--curve", many=True),
         "--out", "--measured", opt("--workers", many=True), "--workload",
         "--seed", "--timeout"]),
    "prove": Verb("run the five-stage protocol once and report timings",
                  cmd_prove,
                  ["--curve", "--exponent", "--out", "--workers",
                   "--timeout"]),
    "verify": Verb(
        "verify artifacts saved by 'repro prove --out'; corrupted blobs "
        "fail with a typed error, exit 2",
        cmd_verify, ["dir", "--timeout"]),
    "lint": Verb(
        "statically analyze the built-in circuits for soundness and cost "
        "smells; exit 1 on any error or warning (docs/ANALYZER.md)",
        cmd_lint, ["--circuit", "--curve", "--json"]),
    "profile": Verb(
        "run the five stages under runtime telemetry: span tree, metrics "
        "and a fingerprinted run record (docs/OBSERVABILITY.md)",
        cmd_profile,
        [*_cell(64), "--workers", *_RECORD, "--chrome-trace",
         "--span-trace"]),
    "deep-profile": Verb(
        "run the five stages under the deep profiler (hot functions, "
        "opcode mix, allocations), write flamegraphs and gate the cost "
        "model's Tables IV/V against the profile; exit 1 on model drift; "
        "keep --size small (docs/PROFILING.md)",
        cmd_deep_profile,
        [*_cell(8), "--top", "--no-alloc", "--collapsed", "--speedscope",
         "--no-artifacts", *_RECORD]),
    "loadtest": Verb(
        "open-loop load against the proving service: latency "
        "percentiles, shedding, phase breakdown; SIGTERM drains in-flight "
        "jobs; exit 1 on any request that resolves untyped or whose "
        "phases do not add up (docs/SERVING.md)",
        cmd_loadtest,
        [*_cell(32), "--workers", "--deadline", "--rps", "--duration",
         "--mix", *_RECORD,
         "--request-trace"]),
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
                spec.pop("default", None)
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
