"""Machine descriptions of the paper's three evaluation CPUs (Table I).

Each :class:`MachineSpec` carries the architectural parameters the analyses
consume: pipeline widths and buffer sizes (top-down), cache geometry (MPKI),
DRAM characteristics (bandwidth), and a per-thread throughput profile
(scalability — the i9's heterogeneous P/E/SMT topology is what bends its
strong-scaling curves).

Microarchitectural constants are from Intel's published documentation for
Kaby Lake-R (i7-8650U), Rocket Lake (i5-11400) and Raptor Lake (i9-13900K);
where a value is not public (front-end effective capacity in bytes) it is
an estimate consistent with the family's known uop-cache size.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["MachineSpec", "I7_8650U", "I5_11400", "I9_13900K", "ALL_CPUS", "get_cpu"]


@dataclass(frozen=True)
class MachineSpec:
    """Parameters of one CPU used across the four analyses."""

    name: str
    # -- topology (Table I) --------------------------------------------------
    cores_perf: int
    cores_eff: int
    smt_threads: int
    freq_ghz: float
    # -- pipeline ----------------------------------------------------------------
    issue_width: int          # pipeline slots per cycle (top-down denominator)
    rob_size: int
    # Effective front-end capacity in bytes of hot code that streams from
    # the uop cache / L1i without legacy-decode stalls.
    fe_capacity_bytes: int
    # Fetch/decode penalty (cycles per instruction) once the hot footprint
    # spills out of the fast front-end path.
    fe_spill_penalty: float
    branch_mispred_penalty: int   # flush cost in cycles
    mispred_scale: float          # predictor quality relative to the model's rates
    #: Fraction of the instruction stream's dependency-chain latency (the
    #: cost model's cycle weights) this machine's out-of-order window fails
    #: to hide — smaller on wider/deeper cores.
    dep_sensitivity: float
    # -- execution ports (instructions per cycle by class) -------------------------
    ports_compute: float
    ports_data: float
    ports_control: float
    # -- memory hierarchy -----------------------------------------------------------
    l1d_kib: int
    l2_kib: int
    llc_kib: int
    llc_assoc: int
    line_bytes: int
    mem_latency_ns: float
    mem_bw_gbps: float        # Table I "Mem BW"
    dram_channels: int
    dram_type: str
    #: Memory-level parallelism: how many LLC misses overlap on average.
    mlp: float
    # -- threading profile ------------------------------------------------------------
    #: Relative throughput of the n-th *additional* hardware thread, in
    #: order of OS scheduling preference (P-cores, then E-cores, then SMT
    #: siblings).  Length == max threads considered by the scaling model.
    thread_profile: tuple = ()

    def parallel_capacity(self, n_threads):
        """Aggregate throughput (in single-P-core units) of *n_threads*."""
        n = max(1, min(n_threads, len(self.thread_profile)))
        return sum(self.thread_profile[:n])

    @property
    def mem_latency_cycles(self):
        return self.mem_latency_ns * self.freq_ghz

    def __repr__(self):
        return f"MachineSpec({self.name})"


def _profile(perf, eff, smt_perf, eff_rel=0.55, smt_rel=0.30):
    """Build a thread-throughput profile: P-cores first, then E-cores,
    then SMT siblings of the P-cores."""
    return tuple([1.0] * perf + [eff_rel] * eff + [smt_rel] * smt_perf)


#: Intel i7-8650U (Kaby Lake-R): 4C/8T, 4-wide, small uop cache, LPDDR3.
I7_8650U = MachineSpec(
    name="i7-8650U",
    cores_perf=4, cores_eff=0, smt_threads=8, freq_ghz=1.9,
    issue_width=4, rob_size=224,
    fe_capacity_bytes=10 * 1024, fe_spill_penalty=0.65,
    branch_mispred_penalty=16, mispred_scale=1.25, dep_sensitivity=1.0,
    ports_compute=2.6, ports_data=2.8, ports_control=1.0,
    l1d_kib=32, l2_kib=256, llc_kib=8 * 1024, llc_assoc=16, line_bytes=64,
    mem_latency_ns=95.0, mem_bw_gbps=34.1, dram_channels=2, dram_type="LPDDR3",
    mlp=4.0,
    thread_profile=_profile(4, 0, 4),
)

#: Intel i5-11400 (Rocket Lake): 6C/12T, 5-wide, single-channel DDR4.
I5_11400 = MachineSpec(
    name="i5-11400",
    cores_perf=6, cores_eff=0, smt_threads=12, freq_ghz=2.6,
    issue_width=5, rob_size=352,
    fe_capacity_bytes=18 * 1024, fe_spill_penalty=0.55,
    branch_mispred_penalty=17, mispred_scale=1.0, dep_sensitivity=0.78,
    ports_compute=3.2, ports_data=3.2, ports_control=1.5,
    l1d_kib=48, l2_kib=512, llc_kib=12 * 1024, llc_assoc=12, line_bytes=64,
    mem_latency_ns=85.0, mem_bw_gbps=17.0, dram_channels=1, dram_type="DDR4",
    mlp=6.0,
    thread_profile=_profile(6, 0, 6),
)

#: Intel i9-13900K (Raptor Lake): 8P+16E/32T, 6-wide P-cores, DDR5.
I9_13900K = MachineSpec(
    name="i9-13900K",
    cores_perf=8, cores_eff=16, smt_threads=32, freq_ghz=3.0,
    issue_width=6, rob_size=512,
    fe_capacity_bytes=44 * 1024, fe_spill_penalty=0.45,
    branch_mispred_penalty=19, mispred_scale=0.85, dep_sensitivity=0.68,
    ports_compute=3.6, ports_data=3.8, ports_control=2.0,
    l1d_kib=48, l2_kib=2048, llc_kib=36 * 1024, llc_assoc=12, line_bytes=64,
    mem_latency_ns=80.0, mem_bw_gbps=89.6, dram_channels=4, dram_type="DDR5",
    mlp=8.0,
    thread_profile=_profile(8, 16, 8, eff_rel=0.70, smt_rel=0.40),
)

ALL_CPUS = (I7_8650U, I5_11400, I9_13900K)

_BY_NAME = {spec.name.lower(): spec for spec in ALL_CPUS}
_BY_NAME.update({"i7": I7_8650U, "i5": I5_11400, "i9": I9_13900K})


def get_cpu(name):
    """Look up a machine by name ("i7", "i5-11400", ...)."""
    try:
        return _BY_NAME[name.lower()]
    except KeyError:
        raise ValueError(f"unknown CPU {name!r}; choose from {sorted(_BY_NAME)}") from None
