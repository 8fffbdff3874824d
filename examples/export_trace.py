#!/usr/bin/env python3
"""Export a stage trace for external tools.

Traces the proving stage and writes:

- ``results/proving_trace.json`` — Chrome Trace Event Format; open it in
  ``chrome://tracing`` or https://ui.perfetto.dev to browse the region
  tree with per-region instruction/cycle annotations (the closest thing
  to opening a VTune recording of the stage);
- ``results/proving_counters.csv`` — flat primitive counters.

    python examples/export_trace.py [stage] [n_constraints]
"""

import os
import sys

from repro.curves import get_curve
from repro.harness.circuits import build_exponentiate
from repro.perf.export import (
    counters_to_csv,
    regions_to_spans,
    spans_to_chrome_trace,
)
from repro.perf.trace import Tracer
from repro.workflow import STAGES, Workflow


def main():
    stage = sys.argv[1] if len(sys.argv) > 1 else "proving"
    size = int(sys.argv[2]) if len(sys.argv) > 2 else 256
    if stage not in STAGES:
        raise SystemExit(f"unknown stage {stage!r}; choose from {STAGES}")

    curve = get_curve("bn128")
    builder, inputs = build_exponentiate(curve, size)
    wf = Workflow(curve, builder, inputs, seed=0)
    tracer = Tracer(label=f"{stage}@{size}")
    # Run the pipeline in order up to (and including) the chosen stage,
    # tracing only that stage.
    for s in STAGES:
        wf.run_stage(s, tracer if s == stage else None)
        if s == stage:
            break
    print(f"traced '{stage}' at n={size}: {tracer.clock} primitives, "
          f"{len(tracer.mem_events)} memory events")

    os.makedirs("results", exist_ok=True)
    json_path = os.path.join("results", f"{stage}_trace.json")
    csv_path = os.path.join("results", f"{stage}_counters.csv")
    with open(json_path, "w") as f:
        f.write(spans_to_chrome_trace(regions_to_spans({stage: tracer})))
    with open(csv_path, "w") as f:
        f.write(counters_to_csv(tracer))
    print(f"wrote {json_path} (open in chrome://tracing or ui.perfetto.dev)")
    print(f"wrote {csv_path}")

    regions = sorted(
        ((r.name, sum(r.counts.values())) for r in tracer.iter_regions()),
        key=lambda kv: kv[1], reverse=True,
    )
    print("\nbusiest regions (by primitive count):")
    for name, count in regions[:8]:
        print(f"  {name:28s} {count:>12,}")


if __name__ == "__main__":
    main()
