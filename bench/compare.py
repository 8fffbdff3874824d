"""Compare two result files of ``bench/run.py``.

``python3 bench/compare.py BASE.json NEW.json``

Prints one row per workload x end-to-end metric — each side's median over
its untraced runs, NEW / BASE with its base, the bound from
``BENCHMARK.json`` and a verdict:

``worse``       NEW's median is worse than BASE's by more than the bound
``unresolved``  not worse, but one side's own runs spread wider than the
                bound — more runs are needed, not a verdict — unless every
                run of NEW reads better than every run of BASE
``ok``          neither

with, after the rows of a workload, its headline numbers under the names
ISSUE 12 gave them (:data:`HEADLINES`: ``pool_speedup``,
``serve_goodput_rps``, ``slo_miss_share``), derived run by run and judged the
same way, and its ``fail_share``; then, per workload, the per-layer delta
table of the two traced runs.
Exits 1 if any row is ``worse`` or NEW failed more operations than BASE.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import stats

ROOT = Path(__file__).resolve().parent.parent


def load(path):
    with open(path) as f:
        return json.load(f)


def fail_share(result, workload):
    entry = result["workloads"].get(workload, {})
    runs = entry.get("runs", []) + ([entry["traced"]] if entry.get("traced") else [])
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted if attempted else 0.0


def _metric(name):
    return lambda run: run["metrics"][name]["value"]


#: Headline numbers of single workloads that the generic end-to-end metrics
#: carry only implicitly: (workload prefix, name, unit, better, bound,
#: whether the bound is absolute, value of one untraced run).
HEADLINES = (
    ("pool-", "pool_speedup", "ratio", "higher", 0.15, False,
     lambda run: _metric("op2_s")(run) / _metric("op_s")(run)),
    ("serve-", "serve_goodput_rps", "1/s", "higher", 0.2, False,
     lambda run: 1.0 / _metric("op2_s")(run)),
    ("serve-", "slo_miss_share", "share", "lower", 0.05, True,
     lambda run: run["detail"]["slo_miss_share"]),
)


def verdict(base, new, better, bound, absolute=False):
    """``(verdict, change)`` for two lists of run values.  *change* is NEW's
    median over BASE's and *bound* a share of BASE's median, or, with
    *absolute*, NEW's median less BASE's and *bound* in the metric's unit."""
    b, n = stats.median(base), stats.median(new)
    scale = 1.0 if absolute else b
    change = n - b if absolute else n / b
    if (n - b if better == "lower" else b - n) / scale > bound:
        return "worse", change
    spread = max((q[2] - q[0]) / scale for q in map(stats.quartiles, (base, new)))
    if spread > bound:
        all_better = (max(new) < min(base) if better == "lower"
                      else min(new) > max(base))
        if not all_better:
            return "unresolved", change
    return "ok", change


def end_to_end_rows(base, new, schema, out=print):
    worse = 0
    out(f"{'workload':<24} {'metric':<18} {'base':>11} {'new':>11} "
        f"{'change':>9} {'bound':>6}  verdict")

    def row(w, name, unit, better, bound, absolute, value):
        b, n = ([value(r) for r in side["workloads"].get(w, {}).get("runs", [])]
                for side in (base, new))
        if not b or not n:
            out(f"{w:<24} {name:<18} {'missing on one side':>34}")
            return 0
        v, change = verdict(b, n, better, bound, absolute)
        shown = f"{change:>+9.3f}" if absolute else f"{change:>8.3f}x"
        limit = f"{bound:>+6.2f}" if absolute else f"{bound:>6.0%}"
        out(f"{w:<24} {name:<18} {stats.median(b):>11.4f} {stats.median(n):>11.4f} "
            f"{shown} {limit}  {v}  (base {stats.median(b):.4g} {unit}, "
            f"n={len(b)}/{len(n)})")
        return v == "worse"

    for spec in schema["workloads"]:
        w = spec["name"]
        for m in schema["end_to_end"]:
            worse += row(w, m["name"], m["unit"], m["better"], m["bound"], False,
                         _metric(m["name"]))
        for prefix, *headline in HEADLINES:
            if w.startswith(prefix):
                worse += row(w, *headline)
        fb, fn = fail_share(base, w), fail_share(new, w)
        worse += fn > fb
        out(f"{w:<24} {'fail_share':<18} {fb:>11.4f} {fn:>11.4f} "
            f"{'':>9} {'0':>6}  {'worse' if fn > fb else 'ok'}")
    return worse


def layer_tables(base, new, schema, out=print):
    for spec in schema["workloads"]:
        w = spec["name"]
        tb = (base["workloads"].get(w) or {}).get("traced")
        tn = (new["workloads"].get(w) or {}).get("traced")
        if not tb or not tn:
            continue
        out(f"\nper-layer, {w} (traced runs):")
        out(f"  {'metric':<34} {'base':>16} {'new':>16} {'change':>9}")
        for m in schema["per_layer"]:
            b = tb["metrics"][m["name"]]["value"]
            n = tn["metrics"][m["name"]]["value"]
            if b == 0 and n == 0:
                continue
            change = f"{(n - b) / b:>+9.1%}" if b else "      new"
            out(f"  {m['name']:<34} {b:>16.6g} {n:>16.6g} {change} {m['unit']}")


def compare(base, new, schema, out=print):
    """Print the comparison through *out*; returns the process exit code."""
    for key in ("fingerprint_id", "seed", "seconds", "runs"):
        if base["meta"].get(key) != new["meta"].get(key):
            out(f"note: {key} differs: {base['meta'].get(key)} vs {new['meta'].get(key)}")
    worse = end_to_end_rows(base, new, schema, out)
    layer_tables(base, new, schema, out)
    return 1 if worse else 0


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as f:
        schema = json.load(f)
    return compare(load(argv[0]), load(argv[1]), schema)


if __name__ == "__main__":
    sys.exit(main())
