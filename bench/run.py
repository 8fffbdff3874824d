"""The benchmark's one command.

``python3 bench/run.py --workload W --seed N --seconds S --trace 0|1``
    One run of one workload, in a fresh subprocess whose environment has the
    ``REPRO_*`` switches removed.  ``--trace 0`` measures the end-to-end
    metrics with nothing installed; ``--trace 1`` produces the per-layer
    table (``layers.py``).  Prints every metric by name with its unit, then
    one JSON object on the last line:
    ``{"correct", "attempted", "failed", "metrics"}``.  Exits non-zero if
    any correctness check failed.

``python3 bench/run.py [--seed N] [--runs K] [--seconds S] [--out FILE]``
    All four workloads: K untraced runs each (seeds N, N+1, ...) and one
    traced run, every one a subprocess of the form above, then one result
    JSON for ``compare.py`` (default ``bench/results/<revision>.json``).

Metric names, units and bounds are read from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import stats

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

#: Switches of the program that would make two runs measure different code.
SCRUBBED = ("REPRO_MSM", "REPRO_BIGINT", "REPRO_WORKERS", "REPRO_LEDGER", "REPRO_CACHE")


def load_schema():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--runs", type=int, default=1,
                   help="untraced runs per workload when running all of them")
    p.add_argument("--out", help="result file when running all workloads")
    p.add_argument("--detail", help=argparse.SUPPRESS)
    p.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


# -- child: one workload, in this process ---------------------------------------------


def child_main(args, schema):
    # The set-up window opens here, before the program is even imported.
    t_start = time.perf_counter()
    import layers
    import workloads

    workload = workloads.make_workload(args.workload, args.seed)
    if args.trace:
        out = layers.run_traced(workload, args.seconds)
    else:
        out = workloads.run_untraced(workload, args.seconds, t_start)
    result = report(args, schema, workload.spec, out)
    if args.detail:
        with open(args.detail, "w") as f:
            json.dump({"detail": out.detail, "failures": out.failures}, f)
    return 0 if result["correct"] else 1


def report(args, schema, spec, out):
    """Print every metric of *out* by name with its unit, then the result
    object on the last line; returns that object.  The names are those of
    ``BENCHMARK.json``: the end-to-end ones must all be there, a per-layer
    row that is absent is a layer that did no work and reads 0."""
    wanted = schema["per_layer"] if args.trace else schema["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    missing = set() if args.trace else set(units) - set(out.metrics)
    if missing or set(out.metrics) - set(units):
        raise SystemExit(f"metrics differ from BENCHMARK.json: "
                         f"{sorted(missing | set(out.metrics) - set(units))}")
    metrics = {name: float(out.metrics.get(name, 0.0)) for name in units}

    print(f"{spec.name}  seed={args.seed}  seconds={args.seconds:g}  "
          f"trace={args.trace}  {json.dumps(out.detail.get('counts'))}")
    for name, value in metrics.items():
        note = f"   # {spec.reads[name]}" if name in spec.reads else ""
        print(f"  {name:<34} {value:>16.6f} {units[name]}{note}")
    for what in out.failures:
        print(f"  FAILED: {what}")
    result = {
        "correct": out.correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return result


# -- parent: fresh subprocesses -------------------------------------------------------


def scrubbed_env():
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED}
    return env, [k for k in SCRUBBED if k in os.environ]


def run_child(args, workload, seed, trace, detail=None):
    """Run one workload in a fresh interpreter; returns ``(exit code, the
    result object or None)``.  The child is waited for in every case."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--child",
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(args.seconds), "--trace", str(trace)]
    if detail is not None:
        cmd += ["--detail", str(detail)]
    env, _ = scrubbed_env()
    # A session of its own, so that a child that has to be killed takes its
    # pool workers with it.
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=175)
    except BaseException as exc:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        if not isinstance(exc, subprocess.TimeoutExpired):
            raise
        print(f"{workload}: no result within 175 s", file=sys.stderr)
        return 1, None
    sys.stdout.write(stdout)
    sys.stdout.flush()
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or "metrics" not in result:
        return proc.returncode or 1, None
    return proc.returncode, result


def run_meta(args, schema):
    from repro.obs.fingerprint import fingerprint_id, git_revision, machine_fingerprint

    fp = machine_fingerprint()
    return {
        "fingerprint": fp,
        "fingerprint_id": fingerprint_id(fp),
        "git": git_revision(str(ROOT)),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "runs": args.runs,
        "seconds": args.seconds,
        "scrubbed_env": list(SCRUBBED),
        "scrubbed_env_was_set": scrubbed_env()[1],
        "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def run_all(args, schema):
    sys.path.insert(0, str(ROOT / "src"))
    meta = run_meta(args, schema)
    result = {"schema": 1, "meta": meta, "workloads": {}}
    code = 0
    with tempfile.TemporaryDirectory(dir=BENCH) as tmp:
        detail = Path(tmp) / "detail.json"
        for spec in schema["workloads"]:
            name = spec["name"]
            entry = result["workloads"][name] = {"runs": [], "traced": None}
            for k in range(args.runs + 1):
                trace = int(k == args.runs)
                seed = args.seed if trace else args.seed + k
                rc, res = run_child(args, name, seed, trace, detail)
                code = code or rc
                if res is None:
                    continue
                res["seed"] = seed
                with open(detail) as f:
                    res.update(json.load(f))
                if trace:
                    entry["traced"] = res
                else:
                    entry["runs"].append(res)
    print_summary(result, schema)
    rev = (meta["git"] or {}).get("rev", "worktree")[:12]
    out = Path(args.out) if args.out else BENCH / "results" / f"{rev}-seed{args.seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w") as f:
        json.dump(result, f)
    print(f"wrote {out}")
    return code


def print_summary(result, schema):
    print("\nend-to-end medians over the untraced runs "
          "(spread = inter-quartile distance / median):")
    for name, entry in result["workloads"].items():
        runs = entry["runs"]
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        print(f"  {name}: {len(runs)} run(s), fail_share "
              f"{failed}/{attempted}")
        for m in schema["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            if not values:
                continue
            spread = f"{stats.spread_share(values):6.1%}" if len(values) > 1 else "   n/a"
            print(f"    {m['name']:<14} {stats.median(values):>12.4f} {m['unit']:<4}"
                  f" spread {spread}  bound {m['bound']:.0%}")


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (ROOT / "src" / "repro").is_dir():
        print("bench/run.py: no src/repro beside bench/ — nothing to measure",
              file=sys.stderr)
        return 2
    schema = load_schema()
    if args.seconds is None:
        args.seconds = float(schema["run_seconds"])
    if args.child:
        return child_main(args, schema)
    # Terminated from outside: leave through run_child's clean-up, not past it.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.workload is None:
        return run_all(args, schema)
    names = [w["name"] for w in schema["workloads"]]
    if args.workload not in names:
        print(f"unknown workload {args.workload!r}; choose from {names}", file=sys.stderr)
        return 2
    rc, result = run_child(args, args.workload, args.seed, args.trace)
    return rc if result is not None else (rc or 1)


if __name__ == "__main__":
    sys.exit(main())
