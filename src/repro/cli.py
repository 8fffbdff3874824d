"""Command-line interface: regenerate any paper artifact from a shell.

    python -m repro list
    python -m repro run fig4 [--sizes 64,128,256] [--curves bn128]
    python -m repro run all --out results/
    python -m repro run fig6 --measured --workers 1,2,4 [--sizes 4096]
    python -m repro prove --curve bn128 --exponent 64 --x 3 [--out DIR]
    python -m repro parallel-report [--size 4096] [--workers 1,2,4] [--json]
    python -m repro verify DIR
    python -m repro lint [--circuit NAME] [--json] [--strict]
    python -m repro codelint [--json] [--baseline PATH]
    python -m repro profile --curve bn128 --size 64 [--json]
    python -m repro deep-profile --curve bn128 --size 8 [--json]
    python -m repro report --compare-model [--sizes 64] [--curves bn128]
    python -m repro sweep [--resume] [--sizes ...] [--curves ...]
    python -m repro chaos --seed 0 --faults 4
    python -m repro chaos --under-load --seed 0 --rps 8 --duration 2
    python -m repro serve [--workers 4] [--rps 8 --duration 10]
    python -m repro loadtest --rps 8 --duration 10 --mix prove:verify
    python -m repro pareto --workers 1,2 --batch-windows 0,0.05 --rps 8

``run`` drives the same experiment reducers ``tests/paper/`` asserts
against; ``prove`` runs the five-stage protocol once and reports timings
(``--out`` also serializes proof/vk/publics); ``verify`` checks such saved
artifacts, rejecting corrupted blobs with a typed error; ``lint`` runs the
constraint-system static analyzer (see docs/ANALYZER.md) over the built-in
circuits and gadgets; ``codelint`` runs the codebase invariant analyzer
(worker-safety, determinism, error-discipline, guard-idiom, deadline-poll
— docs/CODELINT.md) over the source tree and exits 1 on any finding;
``profile`` runs the five stages under runtime
telemetry (spans + metrics, docs/OBSERVABILITY.md) and appends a
machine-fingerprinted record to the run ledger; ``deep-profile`` runs the
stages under the real-interpreter deep profiler (hot functions, measured
opcode mix, allocations — docs/PROFILING.md) and writes collapsed-stack +
speedscope flamegraph artifacts; ``report --compare-model`` re-measures a
small sweep and gates the cost model against it via :mod:`repro.obs.drift`
(exit 1 on drift); ``sweep`` runs the profiling sweep with per-cell
checkpoints so a killed run resumes (docs/ROBUSTNESS.md); ``chaos``
replays a seeded fault schedule through the pipeline and reports recovery
outcomes (``--under-load`` replays it against the live service instead);
``serve`` runs the fault-tolerant async proving service until SIGTERM
(graceful drain) or for a bounded self-traffic run; ``loadtest`` drives
the service open-loop and appends a schema-v5 ``service`` block to the
run ledger (docs/SERVING.md); ``pareto`` sweeps service configurations
into a throughput-vs-p99 frontier with a knee recommendation
(docs/CAPACITY.md).  ``prove``/``verify``/``sweep`` accept
``--timeout SECONDS``: a cooperative wall-clock budget enforced through
the same deadline machinery the service uses — an expired run exits 2
with ``error[timeout]: ...``, never a traceback.

The parallel backend (docs/PARALLELISM.md) surfaces in five places:
``run --measured`` drives fig6/fig7/table6 from *measured* wall times
under real worker processes instead of the analytical model (fig6 also
collects cross-process worker telemetry);
``prove --workers N`` / ``profile --workers N`` / ``chaos --workers N``
run the pipeline under a worker pool (chaos then proves faults inside
workers still come back typed; profile merges worker telemetry into its
ledger record and can export the per-worker-lane timeline via
``--worker-trace``); ``parallel-report`` turns a measured worker sweep
into per-worker busy time, parallel efficiency, imbalance and dispatch
overhead, with the Amdahl fit as a drift reference.

Every verb exits **2** with a one-line ``error[<code>]: ...`` message —
never a traceback — on bad input or corrupted artifacts
(:mod:`repro.resilience.errors`).
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.harness import experiments
from repro.harness.runner import DEFAULT_SIZES, profile_sweep

#: Artifact name -> experiment entry point.
ARTIFACTS = {
    "e0": experiments.exec_time_breakdown,
    "fig4": experiments.fig4_topdown,
    "fig5": experiments.fig5_loads_stores,
    "fig6": experiments.fig6_strong_scaling,
    "fig7": experiments.fig7_weak_scaling,
    "table2": experiments.table2_mpki,
    "table3": experiments.table3_bandwidth,
    "table4": experiments.table4_functions,
    "table5": experiments.table5_opcode_mix,
    "table6": experiments.table6_parallelism,
}


def _parse_sizes(text):
    sizes = tuple(int(s) for s in text.split(","))
    if not sizes or any(n < 1 for n in sizes):
        raise argparse.ArgumentTypeError(f"bad size list {text!r}")
    return sizes


def _curve_name(text):
    """Validate one curve name against the registry at parse time, so a
    typo fails with the available choices instead of a deep KeyError."""
    from repro.curves import get_curve

    try:
        get_curve(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return text


def _parse_curves(text):
    return tuple(_curve_name(name) for name in text.split(","))


def _positive_int(text):
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}") from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return n


def _positive_float(text):
    try:
        v = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a positive number, got {text!r}") from None
    if not v > 0:
        raise argparse.ArgumentTypeError(
            f"expected a positive number, got {text!r}")
    return v


def _traffic_mix(text):
    """Validate a ``--mix`` spec at parse time; returns ``{kind: weight}``."""
    from repro.serve.loadgen import parse_mix

    try:
        return parse_mix(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_workers(text):
    """Comma-separated worker counts, e.g. ``1,2,4`` (for sweeps)."""
    try:
        workers = tuple(int(s) for s in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad worker list {text!r}") from None
    if not workers or any(n < 1 for n in workers):
        raise argparse.ArgumentTypeError(f"bad worker list {text!r}")
    return workers


def _parse_positive_ints(text):
    """Comma-separated positive integers, e.g. queue depths ``8,32``."""
    try:
        values = tuple(int(s) for s in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad integer list {text!r}") from None
    if not values or any(n < 1 for n in values):
        raise argparse.ArgumentTypeError(f"bad integer list {text!r}")
    return values


def _parse_floats(text):
    """Comma-separated non-negative floats, e.g. batch windows ``0,0.05``."""
    try:
        values = tuple(float(s) for s in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad float list {text!r}") from None
    if not values or any(v < 0 for v in values):
        raise argparse.ArgumentTypeError(f"bad float list {text!r}")
    return values


def _parse_positive_floats(text):
    """Comma-separated positive floats, e.g. offered rates ``4,8,16``."""
    values = _parse_floats(text)
    if any(v <= 0 for v in values):
        raise argparse.ArgumentTypeError(
            f"expected positive values, got {text!r}")
    return values


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Performance Analysis of Zero-Knowledge "
                    "Proofs' (IISWC 2024)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the regenerable paper artifacts")

    run = sub.add_parser("run", help="regenerate one artifact (or 'all')")
    run.add_argument("artifact", choices=sorted(ARTIFACTS) + ["all"])
    run.add_argument("--sizes", type=_parse_sizes, default=None,
                     help="comma-separated constraint counts (default: the "
                          "sweep sizes; with --measured, one size, default "
                          "4096 for fig6/table6 and base 256 for fig7)")
    run.add_argument("--curves", type=_parse_curves,
                     default=("bn128", "bls12_381"))
    run.add_argument("--out", default=None,
                     help="directory to also write rendered artifacts into")
    run.add_argument("--measured", action="store_true",
                     help="fig6/fig7/table6 only: measure real wall times "
                          "under worker processes (repro.parallel) instead "
                          "of evaluating the analytical model")
    run.add_argument("--workers", type=_parse_workers, default=None,
                     metavar="N,N,...",
                     help="worker counts for --measured (default 1,2,4)")
    run.add_argument("--workload", default="exponentiate",
                     help="workload family (repro.harness.circuits.WORKLOADS)")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--repeats", type=_positive_int, default=1,
                     help="--measured: best-of-N runs per cell (default 1)")

    prove = sub.add_parser("prove", help="run the five-stage protocol once")
    prove.add_argument("--curve", type=_curve_name, default="bn128")
    prove.add_argument("--exponent", type=int, default=64)
    prove.add_argument("--x", type=int, default=3)
    prove.add_argument("--out", default=None, metavar="DIR",
                       help="also serialize proof.bin / vk.bin / "
                            "publics.json into DIR (for 'repro verify')")
    prove.add_argument("--workers", type=_positive_int, default=None,
                       help="run under N worker processes "
                            "(default: $REPRO_WORKERS, else serial); the "
                            "proof bytes are identical either way")
    prove.add_argument("--timeout", type=_positive_float, default=None,
                       metavar="SECONDS",
                       help="cooperative wall-clock budget for the whole "
                            "run; on expiry exit 2 with error[timeout]")

    verify_p = sub.add_parser(
        "verify",
        help="verify artifacts saved by 'repro prove --out'; corrupted "
             "blobs fail with a typed error, exit 2",
    )
    verify_p.add_argument("dir", help="directory with proof.bin / vk.bin / "
                                      "publics.json")
    verify_p.add_argument("--timeout", type=_positive_float, default=None,
                          metavar="SECONDS",
                          help="cooperative wall-clock budget; on expiry "
                               "exit 2 with error[timeout]")

    lint = sub.add_parser(
        "lint",
        help="statically analyze the built-in circuits for soundness and "
             "cost smells (docs/ANALYZER.md)",
    )
    lint.add_argument("--circuit", default=None,
                      help="analyze only this circuit (default: all built-ins)")
    lint.add_argument("--curve", type=_curve_name, default="bn128")
    lint.add_argument("--json", action="store_true", dest="as_json",
                      help="emit machine-readable diagnostics")
    lint.add_argument("--strict", action="store_true",
                      help="exit nonzero on warnings too, not just errors")
    lint.add_argument("--suppress", default=None, metavar="CODES",
                      help="comma-separated diagnostic codes to drop "
                           "(e.g. ZK403,ZK304)")
    lint.add_argument("--baseline", default=None, metavar="PATH",
                      help="ignore findings recorded in this baseline file")
    lint.add_argument("--write-baseline", default=None, metavar="PATH",
                      help="record current findings as accepted and exit")

    codelint = sub.add_parser(
        "codelint",
        help="statically analyze the codebase itself for worker-safety, "
             "determinism, error-discipline, guard-idiom and deadline-poll "
             "violations (docs/CODELINT.md)",
    )
    codelint.add_argument("--root", default=None, metavar="PATH",
                          help="package dir or single .py file to analyze "
                               "(default: the installed repro package)")
    codelint.add_argument("--json", action="store_true", dest="as_json",
                          help="emit machine-readable diagnostics")
    codelint.add_argument("--checks", default=None, metavar="NAMES",
                          help="comma-separated check families to run "
                               "(worker,determinism,errors,guards,deadline; "
                               "default all)")
    codelint.add_argument("--suppress", default=None, metavar="CODES",
                          help="comma-separated diagnostic codes to drop "
                               "(e.g. RC203,RC104)")
    codelint.add_argument("--baseline", default=None, metavar="PATH",
                          help="ignore findings recorded in this baseline file")
    codelint.add_argument("--write-baseline", default=None, metavar="PATH",
                          help="record current findings as accepted and exit")
    codelint.add_argument("--hot-modules", default=None, metavar="GLOBS",
                          help="override the RC5xx hot-module globs "
                               "(comma-separated fnmatch patterns)")
    codelint.add_argument("--all-modules", action="store_true",
                          help="also list clean modules in the text report")

    profile = sub.add_parser(
        "profile",
        help="run the five stages under runtime telemetry and append a "
             "ledger record (docs/OBSERVABILITY.md)",
    )
    profile.add_argument("--curve", type=_curve_name, default="bn128")
    profile.add_argument("--size", type=int, default=64,
                         help="constraint count of the workload circuit")
    profile.add_argument("--workload", default="exponentiate",
                         help="workload family (repro.harness.circuits.WORKLOADS)")
    profile.add_argument("--seed", type=int, default=0)
    profile.add_argument("--json", action="store_true", dest="as_json",
                         help="print the full ledger record instead of the "
                              "span tree + metrics text")
    profile.add_argument("--ledger", default=None, metavar="PATH",
                         help="ledger file to append to "
                              "(default: results/runs/profile.jsonl)")
    profile.add_argument("--no-ledger", action="store_true",
                         help="do not append a ledger record")
    profile.add_argument("--label", default=None,
                         help="free-form label stored in the record")
    profile.add_argument("--chrome-trace", default=None, metavar="PATH",
                         help="also run each stage under a perf tracer and "
                              "write the merged modeled chrome-trace here")
    profile.add_argument("--span-trace", default=None, metavar="PATH",
                         help="write the measured span tree as chrome-trace "
                              "JSON here")
    profile.add_argument("--workers", type=_positive_int, default=None,
                         help="run under N worker processes (ignored for "
                              "stages traced via --chrome-trace, which "
                              "must stay serial to model costs)")
    profile.add_argument("--worker-trace", default=None, metavar="PATH",
                         help="write the merged worker task timeline (one "
                              "pid lane per worker) as chrome-trace JSON "
                              "here; needs --workers > 1")

    preport = sub.add_parser(
        "parallel-report",
        help="measured worker sweep -> per-worker busy time, parallel "
             "efficiency, imbalance and dispatch overhead "
             "(docs/PARALLELISM.md)",
    )
    preport.add_argument("--curve", type=_curve_name, default="bn128")
    preport.add_argument("--size", type=_positive_int, default=4096,
                         help="constraint count of the workload circuit")
    preport.add_argument("--workers", type=_parse_workers, default=(1, 2, 4),
                         help="comma-separated worker counts to sweep "
                              "(default 1,2,4; 1 is added if missing — it "
                              "anchors speedup)")
    preport.add_argument("--workload", default="exponentiate",
                         help="workload family (repro.harness.circuits.WORKLOADS)")
    preport.add_argument("--seed", type=int, default=0)
    preport.add_argument("--repeats", type=_positive_int, default=1,
                         help="best-of-N runs per worker count (default 1)")
    preport.add_argument("--json", action="store_true", dest="as_json",
                         help="print the report as JSON instead of text")
    preport.add_argument("--worker-trace", default=None, metavar="PATH",
                         help="also write the top worker count's task "
                              "timeline as chrome-trace JSON")

    deep = sub.add_parser(
        "deep-profile",
        help="run the five stages under the real-interpreter deep profiler "
             "and write flamegraph artifacts (docs/PROFILING.md)",
    )
    deep.add_argument("--curve", type=_curve_name, default="bn128")
    deep.add_argument("--size", type=int, default=8,
                      help="constraint count of the workload circuit "
                           "(keep small: deterministic profiling is slow)")
    deep.add_argument("--workload", default="exponentiate",
                      help="workload family (repro.harness.circuits.WORKLOADS)")
    deep.add_argument("--seed", type=int, default=0)
    deep.add_argument("--top", type=_positive_int, default=8,
                      help="hot functions shown per stage (default 8)")
    deep.add_argument("--json", action="store_true", dest="as_json",
                      help="print the full ledger record instead of the "
                           "hot-function / opcode / allocation report")
    deep.add_argument("--no-alloc", action="store_true",
                      help="skip tracemalloc allocation tracking (cheaper)")
    deep.add_argument("--collapsed", default=None, metavar="PATH",
                      help="collapsed-stack output path (default: "
                           "results/prof/deep_<cell>.collapsed.txt)")
    deep.add_argument("--speedscope", default=None, metavar="PATH",
                      help="speedscope JSON output path (default: "
                           "results/prof/deep_<cell>.speedscope.json)")
    deep.add_argument("--no-artifacts", action="store_true",
                      help="do not write the flamegraph artifacts")
    deep.add_argument("--ledger", default=None, metavar="PATH",
                      help="ledger file to append to (default: "
                           "results/runs/deep-profile.jsonl; kept apart "
                           "from profile.jsonl because profiled wall "
                           "times carry profiler overhead)")
    deep.add_argument("--no-ledger", action="store_true",
                      help="do not append a ledger record")
    deep.add_argument("--label", default=None,
                      help="free-form label stored in the record")

    report = sub.add_parser(
        "report",
        help="gate the cost model against deep-profiled reality; exit 1 "
             "on model drift (docs/PROFILING.md)",
    )
    report.add_argument("--compare-model", action="store_true",
                        help="re-measure each cell under the deep profiler "
                             "and diff against the modeled Tables IV/V")
    report.add_argument("--sizes", type=_parse_sizes, default=(64,),
                        help="comma-separated constraint counts (default 64)")
    report.add_argument("--curves", type=_parse_curves, default=("bn128",))
    report.add_argument("--workload", default="exponentiate")
    report.add_argument("--seed", type=int, default=0)
    report.add_argument("--model-json", default=None, metavar="PATH",
                        help="load the modeled reference from this JSON "
                             "file ({stage: {family_shares, opcode_shares}}) "
                             "instead of computing it from repro.perf")
    report.add_argument("--json", action="store_true", dest="as_json")

    sweep = sub.add_parser(
        "sweep",
        help="run the profiling sweep with per-cell checkpoints under "
             "results/checkpoints/ (docs/ROBUSTNESS.md)",
    )
    sweep.add_argument("--curves", type=_parse_curves,
                       default=("bn128", "bls12_381"))
    sweep.add_argument("--sizes", type=_parse_sizes, default=DEFAULT_SIZES,
                       help="comma-separated constraint counts")
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--workload", default="exponentiate",
                       help="workload family (repro.harness.circuits.WORKLOADS)")
    sweep.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                       help="checkpoint base directory "
                            "(default: results/checkpoints)")
    sweep.add_argument("--resume", action="store_true",
                       help="load previously checkpointed cells instead of "
                            "recomputing them")
    sweep.add_argument("--timeout", type=_positive_float, default=None,
                       metavar="SECONDS",
                       help="cooperative wall-clock budget for the whole "
                            "sweep; on expiry exit 2 with error[timeout] "
                            "(finished cells stay checkpointed for --resume)")

    chaos = sub.add_parser(
        "chaos",
        help="run the pipeline under a seeded fault schedule and report "
             "recovery outcomes (docs/ROBUSTNESS.md)",
    )
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument("--faults", type=_positive_int, default=4,
                       help="number of faults in the schedule (default 4)")
    chaos.add_argument("--curve", type=_curve_name, default="bn128")
    chaos.add_argument("--size", type=int, default=32,
                       help="constraint count of the workload circuit")
    chaos.add_argument("--workload", default="exponentiate")
    chaos.add_argument("--max-attempts", type=_positive_int, default=3,
                       help="retry budget per stage (default 3)")
    chaos.add_argument("--workers", type=_positive_int, default=None,
                       help="run the pipeline under N worker processes; "
                            "faults then fire inside workers and must "
                            "still surface typed")
    chaos.add_argument("--json", action="store_true", dest="as_json")
    chaos.add_argument("--under-load", action="store_true",
                       help="inject the fault schedule into the live "
                            "proving service while open-loop traffic "
                            "flows; every request must resolve typed "
                            "(docs/SERVING.md)")
    chaos.add_argument("--rps", type=_positive_float, default=8.0,
                       help="--under-load: request rate (default 8)")
    chaos.add_argument("--duration", type=_positive_float, default=2.0,
                       metavar="SECONDS",
                       help="--under-load: traffic duration (default 2)")
    chaos.add_argument("--mix", type=_traffic_mix, default="prove:verify",
                       help="--under-load: traffic mix, e.g. prove:verify "
                            "or prove=3,verify=1 (default prove:verify)")
    chaos.add_argument("--max-queue", type=_positive_int, default=16,
                       help="--under-load: admission queue depth (default 16)")
    chaos.add_argument("--max-inflight", type=_positive_int, default=64,
                       help="--under-load: in-flight cap (default 64)")
    chaos.add_argument("--deadline", type=_positive_float, default=None,
                       metavar="SECONDS",
                       help="--under-load: per-request deadline")
    chaos.add_argument("--bad-verify-pct", type=float, default=0.0,
                       metavar="PCT",
                       help="--under-load: share of verify requests "
                            "poisoned with a wrong public input (0-100)")

    serve = sub.add_parser(
        "serve",
        help="run the fault-tolerant async proving service; SIGTERM "
             "drains in-flight jobs and exits 0 (docs/SERVING.md)",
    )
    serve.add_argument("--curve", type=_curve_name, default="bn128")
    serve.add_argument("--size", type=_positive_int, default=64,
                       help="constraint count of the served circuit")
    serve.add_argument("--workload", default="exponentiate",
                       help="workload family (repro.harness.circuits.WORKLOADS)")
    serve.add_argument("--workers", type=_positive_int, default=None,
                       help="worker processes behind the compute core "
                            "(default: serial)")
    serve.add_argument("--max-queue", type=_positive_int, default=16,
                       help="admission queue depth (default 16)")
    serve.add_argument("--max-inflight", type=_positive_int, default=64,
                       help="in-flight cap (default 64)")
    serve.add_argument("--deadline", type=_positive_float, default=None,
                       metavar="SECONDS",
                       help="default per-request deadline")
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--rps", type=_positive_float, default=None,
                       help="generate open-loop self-traffic at this rate "
                            "(without it the service idles until SIGTERM)")
    serve.add_argument("--duration", type=_positive_float, default=5.0,
                       metavar="SECONDS",
                       help="self-traffic duration with --rps (default 5)")
    serve.add_argument("--mix", type=_traffic_mix, default="prove:verify",
                       help="self-traffic mix (default prove:verify)")

    loadtest = sub.add_parser(
        "loadtest",
        help="open-loop load generator against the proving service; "
             "appends a schema-v5 'service' ledger block "
             "(docs/SERVING.md)",
    )
    loadtest.add_argument("--rps", type=_positive_float, default=8.0,
                          help="target request rate (default 8)")
    loadtest.add_argument("--duration", type=_positive_float, default=5.0,
                          metavar="SECONDS",
                          help="run duration (default 5)")
    loadtest.add_argument("--mix", type=_traffic_mix, default="prove:verify",
                          help="traffic mix, e.g. prove:verify or "
                               "prove=3,verify=1 (default prove:verify)")
    loadtest.add_argument("--curve", type=_curve_name, default="bn128")
    loadtest.add_argument("--size", type=_positive_int, default=32,
                          help="constraint count of the served circuit "
                               "(default 32)")
    loadtest.add_argument("--workload", default="exponentiate",
                          help="workload family "
                               "(repro.harness.circuits.WORKLOADS)")
    loadtest.add_argument("--workers", type=_positive_int, default=None,
                          help="worker processes behind the compute core")
    loadtest.add_argument("--max-queue", type=_positive_int, default=16,
                          help="admission queue depth (default 16)")
    loadtest.add_argument("--max-inflight", type=_positive_int, default=64,
                          help="in-flight cap (default 64)")
    loadtest.add_argument("--deadline", type=_positive_float, default=None,
                          metavar="SECONDS",
                          help="per-request deadline")
    loadtest.add_argument("--seed", type=int, default=0)
    loadtest.add_argument("--bad-verify-pct", type=float, default=0.0,
                          metavar="PCT",
                          help="share of verify requests poisoned with a "
                               "wrong public input (0-100)")
    loadtest.add_argument("--json", action="store_true", dest="as_json",
                          help="print the full ledger record instead of "
                               "the latency summary")
    loadtest.add_argument("--ledger", default=None, metavar="PATH",
                          help="ledger file to append to "
                               "(default: results/runs/loadtest.jsonl)")
    loadtest.add_argument("--no-ledger", action="store_true",
                          help="do not append a ledger record")
    loadtest.add_argument("--label", default=None,
                          help="free-form label stored in the record")
    loadtest.add_argument("--request-trace", default=None, metavar="PATH",
                          help="also write the per-request phase lanes as "
                               "chrome-trace JSON (one pid lane per "
                               "request class; docs/CAPACITY.md)")

    pareto = sub.add_parser(
        "pareto",
        help="seeded capacity sweep over workers x batch windows x queue "
             "depths x offered rps; prints the throughput-vs-p99 "
             "frontier with a knee recommendation and appends schema-v5 "
             "'capacity' ledger records (docs/CAPACITY.md)",
    )
    pareto.add_argument("--workers", type=_parse_workers, default=(1,),
                        metavar="N,N,...",
                        help="worker counts to sweep (default 1)")
    pareto.add_argument("--batch-windows", type=_parse_floats,
                        default=(0.0, 0.005), metavar="S,S,...",
                        help="verify batch windows in seconds "
                             "(default 0,0.005)")
    pareto.add_argument("--queue-depths", type=_parse_positive_ints,
                        default=(16,), metavar="N,N,...",
                        help="admission queue depths (default 16)")
    pareto.add_argument("--rps", type=_parse_positive_floats, default=(8.0,),
                        metavar="R,R,...",
                        help="offered request rates (default 8)")
    pareto.add_argument("--duration", type=_positive_float, default=2.0,
                        metavar="SECONDS",
                        help="per-cell load duration (default 2)")
    pareto.add_argument("--curve", type=_curve_name, default="bn128")
    pareto.add_argument("--size", type=_positive_int, default=32,
                        help="constraint count of the served circuit "
                             "(default 32)")
    pareto.add_argument("--workload", default="exponentiate",
                        help="workload family "
                             "(repro.harness.circuits.WORKLOADS)")
    pareto.add_argument("--seed", type=int, default=0)
    pareto.add_argument("--mix", type=_traffic_mix, default="prove:verify",
                        help="traffic mix per cell (default prove:verify)")
    pareto.add_argument("--deadline", type=_positive_float, default=None,
                        metavar="SECONDS", help="per-request deadline")
    pareto.add_argument("--max-inflight", type=_positive_int, default=64,
                        help="in-flight cap per cell (default 64)")
    pareto.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                        help="checkpoint base directory "
                             "(default: results/checkpoints)")
    pareto.add_argument("--fresh", action="store_true",
                        help="re-measure every cell, ignoring checkpoints "
                             "(resume is the default)")
    pareto.add_argument("--ledger", default=None, metavar="PATH",
                        help="capacity ledger to append to "
                             "(default: results/runs/capacity.jsonl)")
    pareto.add_argument("--no-ledger", action="store_true",
                        help="do not append ledger records")
    pareto.add_argument("--json", action="store_true", dest="as_json")

    return parser


def cmd_list(_args, out=print):
    out("artifact  | paper reference")
    out("----------+-------------------------------------------")
    refs = {
        "e0": "Section IV-B execution-time breakdown",
        "fig4": "Fig. 4 top-down microarchitecture analysis",
        "fig5": "Fig. 5 loads and stores",
        "fig6": "Fig. 6 strong scaling",
        "fig7": "Fig. 7 weak scaling",
        "table2": "Table II LLC MPKI",
        "table3": "Table III max memory bandwidth",
        "table4": "Table IV hot functions",
        "table5": "Table V opcode mix",
        "table6": "Table VI serial/parallel decomposition",
    }
    for name in sorted(ARTIFACTS):
        out(f"{name:9s} | {refs[name]}")
    out("")
    out("also: 'repro prove' (one protocol run), "
        "'repro lint' (circuit static analysis),")
    out("      'repro codelint' (codebase invariant analysis: "
        "worker-safety / determinism / error discipline),")
    out("      'repro profile' (runtime telemetry + run ledger),")
    out("      'repro deep-profile' (measured hot functions / opcode mix "
        "/ allocations + flamegraphs),")
    out("      'repro report --compare-model' (model-vs-measured drift "
        "gate),")
    out("      'repro run fig6 --measured --workers 1,2,4' (real worker "
        "sweep),")
    out("      'repro serve' (fault-tolerant async proving service), "
        "'repro loadtest' (open-loop latency/shedding report),")
    out("      'repro chaos --under-load' (seeded faults against live "
        "service traffic),")
    out("      'repro pareto' (capacity sweep: throughput-vs-p99 frontier "
        "+ knee + phase breakdown)")
    return 0


def cmd_run(args, out=print):
    if args.measured:
        return _run_measured(args, out)
    names = sorted(ARTIFACTS) if args.artifact == "all" else [args.artifact]
    sizes = args.sizes or DEFAULT_SIZES
    out(f"profiling sweep: curves={args.curves} sizes={sizes} ...")
    sweep = profile_sweep(curve_names=args.curves, sizes=sizes,
                          seed=args.seed, workload=args.workload)
    for name in names:
        result = ARTIFACTS[name](sweep)
        text = result.render()
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
            if top_block:
                from repro.perf.export import worker_tasks_to_chrome_trace

                trace_path = os.path.join(args.out,
                                          f"{name}_worker_trace.json")
                with open(trace_path, "w") as f:
                    f.write(worker_tasks_to_chrome_trace(top_block))
                out(f"  worker trace: wrote {trace_path}")
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
    from repro.perf.export import (
        spans_to_chrome_trace,
        stages_to_chrome_trace,
        worker_tasks_to_chrome_trace,
    )
    from repro.perf.trace import Tracer
    from repro.workflow import STAGES, Workflow

    curve = get_curve(args.curve)
    try:
        builder, inputs = build_workload(args.workload, curve, args.size)
    except (KeyError, ValueError) as exc:
        out(f"bad workload cell: {exc}")
        return 2

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

    workers_block = (tel.to_workers_block()
                     if tel is not None and tel.tasks else None)
    record = ledger.make_record(
        kind="profile",
        curve=args.curve,
        size=args.size,
        workload=args.workload,
        seed=args.seed,
        stages=[wf.results[s].to_record() for s in STAGES],
        metrics=registry.snapshot(),
        label=args.label,
        workers=workers_block,
    )
    if args.chrome_trace:
        obs_format.write_artifact(args.chrome_trace,
                                  stages_to_chrome_trace(tracers),
                                  out, "chrome-trace", quiet=True)
    if args.span_trace:
        obs_format.write_artifact(args.span_trace,
                                  spans_to_chrome_trace(rec.root),
                                  out, "span-trace", quiet=True)
    if args.worker_trace:
        if workers_block is None:
            out("worker-trace: skipped — no worker telemetry captured "
                "(pass --workers > 1 and a payload large enough to fan out)")
        else:
            obs_format.write_artifact(args.worker_trace,
                                      worker_tasks_to_chrome_trace(workers_block),
                                      out, "worker-trace", quiet=True)

    obs_format.emit_record(record, args.as_json, out, render=[
        lambda: spans.render_spans(rec.root),
        registry.render_text,
    ])
    if not args.no_ledger:
        path = args.ledger or os.path.join(ledger.DEFAULT_DIR, "profile.jsonl")
        obs_format.append_record(record, path, out, quiet=args.as_json)
    return 0


def cmd_deep_profile(args, out=print):
    from repro.obs import format as obs_format
    from repro.obs import ledger, prof
    from repro.perf.export import collapsed_to_text, to_speedscope
    from repro.workflow import STAGES

    try:
        wf, profiler = prof.deep_profile_run(
            args.curve, args.size, workload=args.workload, seed=args.seed,
            alloc=not args.no_alloc,
        )
    except (KeyError, ValueError) as exc:
        out(f"bad workload cell: {exc}")
        return 2

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
    if not args.no_ledger:
        path = args.ledger or os.path.join(ledger.DEFAULT_DIR,
                                           "deep-profile.jsonl")
        obs_format.append_record(record, path, out, quiet=args.as_json)
    return 0


def cmd_report(args, out=print):
    import json

    from repro.obs import drift, prof

    if not args.compare_model:
        out("nothing to report: pass --compare-model")
        return 2

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


def cmd_sweep(args, out=print):
    from repro.resilience.checkpoint import DEFAULT_DIR as CKPT_DIR
    from repro.resilience.retry import deadline_scope

    base = args.checkpoint_dir or CKPT_DIR
    out(f"checkpointed sweep: curves={args.curves} sizes={args.sizes} "
        f"workload={args.workload} seed={args.seed}"
        + (" (resuming)" if args.resume else ""))
    with deadline_scope(args.timeout, stage="sweep") as dl:
        if dl is not None:
            dl.check()
        sweep = profile_sweep(
            curve_names=args.curves, sizes=args.sizes, seed=args.seed,
            workload=args.workload, checkpoint=base, resume=args.resume,
        )
    for (curve_name, size), profiles in sorted(sweep.items()):
        total = sum(p.elapsed for p in profiles.values())
        out(f"  {curve_name:10s} n={size:<8d} {total:8.3f}s "
            f"(proving {profiles['proving'].elapsed:.3f}s)")
    out(f"{len(sweep)} cell(s) done; checkpoints under {base}")
    return 0


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


def cmd_serve(args, out=print):
    import asyncio
    import signal

    from repro.serve import ProvingService, run_loadtest

    service = ProvingService(
        curve=args.curve, size=args.size, workload=args.workload,
        workers=args.workers, max_queue=args.max_queue,
        max_inflight=args.max_inflight, default_deadline_s=args.deadline,
        seed=args.seed)

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
    from repro.serve import ProvingService, run_loadtest

    registry = metrics.MetricsRegistry()
    service = ProvingService(
        curve=args.curve, size=args.size, workload=args.workload,
        workers=args.workers, max_queue=args.max_queue,
        max_inflight=args.max_inflight, default_deadline_s=args.deadline,
        seed=args.seed)

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
        from repro.perf.export import requests_to_chrome_trace

        obs_format.write_artifact(
            args.request_trace, requests_to_chrome_trace(load.results),
            out, "request-trace", quiet=args.as_json)
    if not args.no_ledger:
        path = args.ledger or os.path.join(ledger.DEFAULT_DIR,
                                           "loadtest.jsonl")
        obs_format.append_record(record, path, out, quiet=args.as_json)
    # 1 on a typed-resolution breach: the loadtest doubles as a liveness
    # gate for the serving layer.
    return 1 if load.unresolved else 0


def cmd_pareto(args, out=print):
    from repro.obs import ledger
    from repro.obs.capacity import run_capacity_sweep

    ledger_path = None
    if not args.no_ledger:
        ledger_path = args.ledger or os.path.join(ledger.DEFAULT_DIR,
                                                  "capacity.jsonl")
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
        ledger_path=ledger_path, progress=progress)
    if args.as_json:
        out(report.to_json(indent=2))
    else:
        out("")
        out(report.render_text())
        if ledger_path:
            out(f"ledger: capacity records in {ledger_path}")
        out(f"checkpoints: {report.checkpoint_dir}")
    # 1 when nothing completed or the phase accounting broke: a sweep
    # whose breakdowns do not add up diagnoses nothing.
    return 0 if report.ok else 1


def cmd_parallel_report(args, out=print):
    from repro.obs import format as obs_format
    from repro.obs.worker import build_parallel_report
    from repro.perf.export import worker_tasks_to_chrome_trace

    cores = os.cpu_count() or 1
    top = max(args.workers)
    if top > cores:
        out(f"parallel-report: note — sweeping up to {top} workers on "
            f"{cores} core(s); efficiency at oversubscribed counts "
            f"reflects time-slicing, not the algorithm")
    report, tel = build_parallel_report(
        curve=args.curve, size=args.size, workers=args.workers,
        workload=args.workload, seed=args.seed, repeats=args.repeats)
    if args.worker_trace:
        if tel is None or not tel.tasks:
            out("worker-trace: skipped — the sweep recorded no worker tasks")
        else:
            obs_format.write_artifact(
                args.worker_trace,
                worker_tasks_to_chrome_trace(tel.to_workers_block()),
                out, "worker-trace", quiet=args.as_json)
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


def main(argv=None, out=print):
    from repro.resilience.errors import ReproError

    args = build_parser().parse_args(argv)
    handler = {"list": cmd_list, "run": cmd_run, "prove": cmd_prove,
               "verify": cmd_verify, "lint": cmd_lint,
               "codelint": cmd_codelint,
               "profile": cmd_profile, "deep-profile": cmd_deep_profile,
               "report": cmd_report, "sweep": cmd_sweep, "chaos": cmd_chaos,
               "serve": cmd_serve, "loadtest": cmd_loadtest,
               "pareto": cmd_pareto,
               "parallel-report": cmd_parallel_report}[args.command]
    try:
        return handler(args, out=out)
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
