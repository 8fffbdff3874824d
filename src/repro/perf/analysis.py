"""One-call per-stage characterization (the paper's Fig. 3 framework).

:func:`analyze_stage` runs all four analyses over one traced stage:

- code analysis (opcode mix + function hotspots) — machine-independent,
- memory analysis (loads/stores, LLC MPKI, max bandwidth) — per CPU,
- top-down analysis — per CPU,
- the work split feeding the scalability analysis.

The result, :class:`StageProfile`, is a plain picklable summary (no tracer
reference), which the harness caches across benchmark processes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.perf.bandwidth import BandwidthProfile, bandwidth_profile
from repro.perf.costmodel import aggregate_tracer
from repro.perf.cpu import ALL_CPUS
from repro.perf.functions import function_hotspots
from repro.perf.opcodes import opcode_mix
from repro.perf.scaling import WorkSplit, work_split
from repro.perf.topdown import topdown_analysis

__all__ = ["CpuView", "StageProfile", "analyze_stage"]


@dataclass
class CpuView:
    """The machine-dependent half of a stage profile, for one CPU."""

    cpu: str
    load_mpki: float
    bandwidth: BandwidthProfile
    topdown: object  # TopDownResult
    llc_load_misses: float
    llc_store_misses: float
    traffic_bytes: float


@dataclass
class StageProfile:
    """Everything the paper reports about one (stage, curve, size) cell."""

    stage: str
    curve: str
    size: int
    elapsed: float
    instructions: float
    cycles: float
    loads: float              # Fig. 5 counters (cost-model architectural loads)
    stores: float
    opcode_mix: object        # OpcodeMix (Table V)
    functions: object         # FunctionProfile (Table IV)
    split: WorkSplit          # scalability input (Fig. 6/7, Table VI)
    per_cpu: dict             # cpu name -> CpuView (Fig. 4, Tables II/III)

    def view(self, cpu_name):
        return self.per_cpu[cpu_name]

    def __repr__(self):
        return (
            f"StageProfile({self.stage}, {self.curve}, n={self.size}, "
            f"instr={self.instructions:.3g})"
        )


def analyze_stage(tracer, stage, curve, size, elapsed=0.0):
    """Run the full four-analysis framework over one stage trace, whose
    memory events went to an :class:`~repro.perf.cache.LLCModel`."""
    summary = aggregate_tracer(tracer)
    mix = opcode_mix(tracer)
    hotspots = function_hotspots(tracer)

    per_cpu = {}
    traffic_for_split = 0.0
    for spec, llc in zip(ALL_CPUS, tracer.mem_events.caches):
        stats = llc.stats
        bw = bandwidth_profile(llc.bins, tracer.clock, spec)
        td = topdown_analysis(summary, stats, spec)
        traffic = stats.traffic_bytes(spec.line_bytes)
        per_cpu[spec.name] = CpuView(
            cpu=spec.name,
            load_mpki=stats.load_mpki(summary.instructions),
            bandwidth=bw,
            topdown=td,
            llc_load_misses=stats.load_misses,
            llc_store_misses=stats.store_misses,
            traffic_bytes=traffic,
        )
        traffic_for_split = max(traffic_for_split, traffic)

    split = work_split(tracer, traffic_bytes=traffic_for_split)
    return StageProfile(
        stage=stage,
        curve=curve,
        size=size,
        elapsed=elapsed,
        instructions=summary.instructions,
        cycles=summary.cycles,
        loads=summary.loads,
        stores=summary.stores,
        opcode_mix=mix,
        functions=hotspots,
        split=split,
        per_cpu=per_cpu,
    )
