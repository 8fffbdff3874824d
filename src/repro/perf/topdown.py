"""Top-down microarchitecture analysis (the paper's Fig. 4).

Intel's top-down method (Yasin, ISPASS 2014) splits a CPU's pipeline slots
into **front-end bound**, **bad speculation**, **back-end bound** and
**retiring**.  VTune measures this with PMU events; this reproduction
derives the same four fractions analytically from quantities the tracer and
cost model actually measured:

- *retiring* slots are the useful instructions themselves;
- *front-end* stalls arise when the stage's hot code footprint spills out
  of the machine's fast fetch path (uop cache / L1i), charging a per-
  instruction fetch penalty on the spilled fraction;
- *bad speculation* charges the flush penalty for the expected
  mispredictions of the instruction mix (indirect dispatch and
  data-dependent branches carry high rates in the cost model);
- *back-end* stalls combine a core component (execution-port pressure by
  instruction class) and a memory component (LLC misses exposed through
  limited memory-level parallelism, or DRAM bandwidth saturation,
  whichever binds).

The *differences between CPUs* (the paper's Key Takeaway 1) come only from
the :class:`~repro.perf.cpu.MachineSpec` parameters — every stage is scored
by the same formulas.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["TopDownResult", "topdown_analysis"]

CATEGORIES = ("frontend", "bad_speculation", "backend", "retiring")


@dataclass
class TopDownResult:
    """Slot fractions (summing to 1.0) plus the cycle components behind them."""

    frontend: float
    bad_speculation: float
    backend: float
    retiring: float
    cycles: float            # modeled total core cycles for the stage
    detail: dict             # cycle breakdown by component

    @property
    def classification(self):
        """The dominant category — how the paper labels a stage on a CPU."""
        vals = {
            "frontend": self.frontend,
            "bad_speculation": self.bad_speculation,
            "backend": self.backend,
            "retiring": self.retiring,
        }
        return max(vals, key=vals.get)

    def as_dict(self):
        return {
            "frontend": self.frontend,
            "bad_speculation": self.bad_speculation,
            "backend": self.backend,
            "retiring": self.retiring,
        }


def topdown_analysis(summary, cache_stats, spec):
    """Classify a stage's pipeline slots on one machine.

    Parameters
    ----------
    summary:
        The :class:`~repro.perf.costmodel.StreamSummary` of the stage.
    cache_stats:
        :class:`~repro.perf.cache.CacheStats` from the LLC simulation on the
        same machine.
    spec:
        The :class:`~repro.perf.cpu.MachineSpec`.
    """
    I = max(summary.instructions, 1.0)
    W = spec.issue_width

    # Useful work: one slot per retired instruction.
    retire_cycles = I / W

    # Front-end: footprint spilling the fast fetch path.
    footprint = summary.code_bytes
    if footprint > spec.fe_capacity_bytes:
        spill_frac = 1.0 - spec.fe_capacity_bytes / footprint
    else:
        spill_frac = 0.0
    fe_cycles = I * spill_frac * spec.fe_spill_penalty

    # Bad speculation: expected flushes times the machine's flush cost.
    mispred = summary.mispredictions * spec.mispred_scale
    bad_cycles = mispred * spec.branch_mispred_penalty

    # Back-end, core component: port pressure plus exposed dependency
    # latency.  The cost model's per-primitive cycle weights encode each
    # primitive's dependency-chain length (carry chains in big-integer
    # kernels, pointer chases in graph walks); a machine hides a fraction
    # of that latency with its out-of-order window — `dep_sensitivity` is
    # the fraction it cannot hide.
    port_cycles = max(
        summary.compute / spec.ports_compute,
        summary.data / spec.ports_data,
        summary.control / spec.ports_control,
    )
    dep_cycles = summary.cycles * spec.dep_sensitivity
    core_cycles = max(0.0, max(port_cycles, dep_cycles) - retire_cycles)

    # Back-end, memory component: random (pointer-chase) misses expose
    # their latency through the limited MLP of dependent chains; streamed
    # misses are prefetched and only consume DRAM bandwidth.
    random_misses = cache_stats.random_load_misses
    lat_cycles = random_misses * spec.mem_latency_cycles / spec.mlp
    traffic = cache_stats.traffic_bytes(spec.line_bytes)
    bw_cycles = traffic * spec.freq_ghz / spec.mem_bw_gbps
    mem_cycles = max(lat_cycles, bw_cycles)

    total = retire_cycles + fe_cycles + bad_cycles + core_cycles + mem_cycles
    return TopDownResult(
        frontend=fe_cycles / total,
        bad_speculation=bad_cycles / total,
        backend=(core_cycles + mem_cycles) / total,
        retiring=retire_cycles / total,
        cycles=total,
        detail={
            "retire_cycles": retire_cycles,
            "frontend_cycles": fe_cycles,
            "bad_speculation_cycles": bad_cycles,
            "backend_core_cycles": core_cycles,
            "backend_memory_cycles": mem_cycles,
            "footprint_bytes": footprint,
            "spill_fraction": spill_frac,
            "mispredictions": mispred,
        },
    )
