"""One entry point per paper artifact (see DESIGN.md's experiment index).

Every function takes the sweep produced by
:func:`repro.harness.runner.profile_sweep` — ``{(curve, size): {stage:
StageProfile}}`` — and reduces it to an :class:`ExperimentResult` holding
the same rows the paper's table/figure reports, plus machine-readable
``extras`` that the benchmark assertions check shape claims against.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from repro.harness.report import render_table
from repro.perf.cpu import ALL_CPUS, I9_13900K
from repro.perf.scaling import (
    DEFAULT_THREADS,
    amdahl_fit,
    gustafson_fit,
    strong_scaling,
    weak_scaling,
)
from repro.workflow import STAGES

__all__ = [
    "ExperimentResult",
    "exec_time_breakdown",
    "fig4_topdown",
    "fig5_loads_stores",
    "fig6_strong_scaling",
    "fig7_weak_scaling",
    "table2_mpki",
    "table3_bandwidth",
    "table4_functions",
    "table5_opcode_mix",
    "table6_parallelism",
]

_CPU_SHORT = {"i7-8650U": "i7", "i5-11400": "i5", "i9-13900K": "i9"}
_CURVE_SHORT = {"bn128": "BN", "bls12_381": "BLS"}


@dataclass
class ExperimentResult:
    """A rendered experiment: identifier, table data, and shape extras."""

    ident: str
    title: str
    headers: list
    rows: list
    extras: dict = field(default_factory=dict)
    floatfmt: str = ".2f"
    #: Trailing columns measured on the machine that ran the sweep (wall
    #: clock), not modeled: they move from run to run, so an artifact file
    #: leaves them out and only the printed table shows them.
    measured: int = 0

    def render(self, artifact=False):
        keep = len(self.headers) - (self.measured if artifact else 0)
        return render_table(self.headers[:keep], [row[:keep] for row in self.rows],
                            title=f"[{self.ident}] {self.title}",
                            floatfmt=self.floatfmt)


def _curves(sweep):
    return sorted({c for c, _ in sweep}, reverse=True)  # bn128 first


def _curve_shorts(sweep):
    return [_CURVE_SHORT[c] for c in _curves(sweep)]


def _sizes(sweep):
    return sorted({s for _, s in sweep})


# -- E0: execution-time breakdown (Section IV-B) --------------------------------


def exec_time_breakdown(sweep):
    """Share of protocol time per stage (paper: setup 76.1%, proving 13.4%).

    Uses the modeled i9 cycle counts (the paper's wall-clock shares come
    from the same machine class); measured Python wall time is printed
    alongside for reference, and left out of the artifact file.
    """
    cycles = defaultdict(float)
    wall = defaultdict(float)
    for profs in sweep.values():
        for stage, p in profs.items():
            cycles[stage] += p.per_cpu[I9_13900K.name].topdown.cycles
            wall[stage] += p.elapsed
    total_c = sum(cycles.values()) or 1.0
    total_w = sum(wall.values()) or 1.0
    rows = []
    shares = {}
    for stage in STAGES:
        share = 100.0 * cycles[stage] / total_c
        shares[stage] = share
        rows.append([stage, share, 100.0 * wall[stage] / total_w])
    return ExperimentResult(
        ident="E0",
        title="Execution-time share per stage (modeled i9 cycles)",
        headers=["stage", "modeled share (%)", "measured wall share (%)"],
        rows=rows,
        extras={"shares": shares},
        measured=1,
    )


# -- Fig. 4: top-down microarchitecture analysis -----------------------------------


def fig4_topdown(sweep):
    """Pipeline-slot fractions per (stage, CPU, curve, size), plus each
    (stage, CPU)'s majority classification across sizes and curves."""
    rows = []
    votes = defaultdict(lambda: defaultdict(int))
    fractions = {}
    for (curve, size), profs in sorted(sweep.items()):
        for stage in STAGES:
            p = profs[stage]
            for spec in ALL_CPUS:
                td = p.per_cpu[spec.name].topdown
                rows.append([
                    stage, _CPU_SHORT[spec.name], _CURVE_SHORT[curve], size,
                    100 * td.frontend, 100 * td.bad_speculation,
                    100 * td.backend, 100 * td.retiring, td.classification,
                ])
                votes[(stage, _CPU_SHORT[spec.name])][td.classification] += 1
                fractions[(stage, _CPU_SHORT[spec.name], _CURVE_SHORT[curve], size)] = (
                    td.as_dict()
                )
    majority = {
        key: max(v, key=v.get) for key, v in votes.items()
    }
    return ExperimentResult(
        ident="Fig4",
        title="Top-down analysis: pipeline-slot percentages",
        headers=["stage", "cpu", "curve", "n", "FE%", "BadSpec%", "BE%", "Retire%",
                 "classification"],
        rows=rows,
        extras={"majority": majority, "fractions": fractions},
        floatfmt=".1f",
    )


# -- Fig. 5: loads and stores -----------------------------------------------------------


def fig5_loads_stores(sweep):
    """Loads/stores per stage vs constraint size (averaged over curves)."""
    acc = defaultdict(lambda: [0.0, 0.0, 0])
    for (curve, size), profs in sweep.items():
        for stage in STAGES:
            p = profs[stage]
            cell = acc[(stage, size)]
            cell[0] += p.loads
            cell[1] += p.stores
            cell[2] += 1
    rows = []
    loads = {}
    stores = {}
    for (stage, size), (l, s, n) in sorted(acc.items(), key=lambda kv: (kv[0][1], STAGES.index(kv[0][0]))):
        rows.append([stage, size, l / n, s / n, (l / s) if s else float("inf")])
        loads[(stage, size)] = l / n
        stores[(stage, size)] = s / n
    return ExperimentResult(
        ident="Fig5",
        title="Memory analysis: loads and stores per stage",
        headers=["stage", "n", "loads", "stores", "load/store"],
        rows=rows,
        extras={"loads": loads, "stores": stores},
        floatfmt=".3g",
    )


# -- Table II: LLC MPKI -----------------------------------------------------------------


def table2_mpki(sweep):
    """Maximum LLC load MPKI per stage per (CPU, curve) across sizes."""
    best = defaultdict(float)
    for (curve, size), profs in sweep.items():
        for stage in STAGES:
            p = profs[stage]
            for spec in ALL_CPUS:
                key = (stage, _CPU_SHORT[spec.name], _CURVE_SHORT[curve])
                best[key] = max(best[key], p.per_cpu[spec.name].load_mpki)
    cols = [(c, e) for c in ("i7", "i5", "i9") for e in _curve_shorts(sweep)]
    rows = []
    for stage in STAGES:
        rows.append([stage] + [best[(stage, c, e)] for c, e in cols])
    return ExperimentResult(
        ident="Table2",
        title="Memory analysis: max LLC load MPKI per stage",
        headers=["stage"] + [f"{c}-{e}" for c, e in cols],
        rows=rows,
        extras={"mpki": dict(best)},
        floatfmt=".3f",
    )


# -- Table III: maximum memory bandwidth ----------------------------------------------------


def table3_bandwidth(sweep):
    """Max bandwidth per stage, averaged over CPUs and sizes, per curve."""
    acc = defaultdict(lambda: [0.0, 0])
    for (curve, size), profs in sweep.items():
        for stage in STAGES:
            p = profs[stage]
            for spec in ALL_CPUS:
                cell = acc[(_CURVE_SHORT[curve], stage)]
                cell[0] += p.per_cpu[spec.name].bandwidth.max_gbps
                cell[1] += 1
    rows = []
    bw = {}
    for ec in _curve_shorts(sweep):
        row = [ec]
        for stage in STAGES:
            total, n = acc[(ec, stage)]
            val = total / n if n else 0.0
            bw[(ec, stage)] = val
            row.append(val)
        rows.append(row)
    return ExperimentResult(
        ident="Table3",
        title="Memory analysis: max memory bandwidth (GB/s, avg over CPUs+sizes)",
        headers=["EC"] + list(STAGES),
        rows=rows,
        extras={"bandwidth": bw},
    )


# -- Table IV: time-consuming functions --------------------------------------------------------


def table4_functions(sweep):
    """CPU-time share of the hot function families per stage (avg over cells)."""
    acc = defaultdict(lambda: defaultdict(float))
    counts = defaultdict(int)
    for profs in sweep.values():
        for stage in STAGES:
            p = profs[stage]
            counts[stage] += 1
            for h in p.functions.hotspots:
                acc[stage][h.function] += h.share
    rows = []
    shares = {}
    for stage in STAGES:
        fns = {fn: total / counts[stage] for fn, total in acc[stage].items()}
        shares[stage] = fns
        top = sorted(fns.items(), key=lambda kv: kv[1], reverse=True)[:5]
        rows.append([stage] + [f"{fn} ({100 * s:.1f}%)" for fn, s in top])
    return ExperimentResult(
        ident="Table4",
        title="Code analysis: time-consuming functions per stage",
        headers=["stage", "#1", "#2", "#3", "#4", "#5"],
        rows=rows,
        extras={"shares": shares},
        floatfmt=".3f",
    )


# -- Table V: opcode mix -----------------------------------------------------------------------


def table5_opcode_mix(sweep):
    """Average compute/control/data percentages per stage per curve."""
    acc = defaultdict(lambda: [0.0, 0.0, 0.0, 0])
    for (curve, size), profs in sweep.items():
        for stage in STAGES:
            m = profs[stage].opcode_mix
            cell = acc[(_CURVE_SHORT[curve], stage)]
            cell[0] += m.compute_pct
            cell[1] += m.control_pct
            cell[2] += m.data_pct
            cell[3] += 1
    present = _curve_shorts(sweep)
    rows = []
    mix = {}
    for stage in STAGES:
        row = [stage]
        for ec in present:
            c, t, d, n = acc[(ec, stage)]
            if n:
                triple = (c / n, t / n, d / n)
            else:
                triple = (0.0, 0.0, 0.0)
            mix[(ec, stage)] = triple
            row.extend(triple)
        rows.append(row)
    return ExperimentResult(
        ident="Table5",
        title="Code analysis: opcode-type percentages (Comp/Ctrl/Data)",
        headers=["stage"] + [f"{ec} {cls}%" for ec in present
                             for cls in ("Comp", "Ctrl", "Data")],
        rows=rows,
        extras={"mix": mix},
        floatfmt=".1f",
    )


# -- Fig. 6: strong scaling ---------------------------------------------------------------------


def fig6_strong_scaling(sweep, spec=I9_13900K, threads=DEFAULT_THREADS,
                        curve=None):
    """Speedup vs threads at fixed size for every stage (paper: i9)."""
    if curve is None:
        curve = _curves(sweep)[0]
    rows = []
    speedups = {}
    for size in _sizes(sweep):
        profs = sweep[(curve, size)]
        for stage in STAGES:
            sp = strong_scaling(profs[stage].split, spec, threads)
            speedups[(stage, size)] = sp
            rows.append([stage, size] + [sp[n] for n in threads])
    return ExperimentResult(
        ident="Fig6",
        title=f"Strong scaling on {spec.name} ({curve}): Speedup_SS per thread count",
        headers=["stage", "n"] + [f"t={n}" for n in threads],
        rows=rows,
        extras={"speedups": speedups, "threads": threads},
    )


# -- Fig. 7: weak scaling ------------------------------------------------------------------------


def fig7_weak_scaling(sweep, spec=I9_13900K, curve=None):
    """Speedup_WS as threads and constraints double together (paper: i9,
    1..32 threads against 2^13..2^18)."""
    if curve is None:
        curve = _curves(sweep)[0]
    sizes = _sizes(sweep)
    # Pair thread counts 1,2,4,... with successive sizes.
    pairs = [(2**i, sizes[i]) for i in range(min(6, len(sizes)))]
    rows = []
    speedups = {}
    for stage in STAGES:
        splits = {n: sweep[(curve, size)][stage].split for n, size in pairs}
        sp = weak_scaling(splits, spec)
        speedups[stage] = sp
        rows.append([stage] + [sp[n] for n, _ in pairs])
    return ExperimentResult(
        ident="Fig7",
        title=f"Weak scaling on {spec.name} ({curve}): Speedup_WS (threads x2, size x2)",
        headers=["stage"] + [f"t={n}/n={size}" for n, size in pairs],
        rows=rows,
        extras={"speedups": speedups, "pairs": pairs},
    )


# -- Table VI: serial/parallel decomposition -------------------------------------------------------


def table6_parallelism(sweep, spec=I9_13900K, threads=DEFAULT_THREADS):
    """Amdahl (SS) and Gustafson (WS) serial/parallel fits per stage per
    curve on the i9, averaged over constraint sizes (SS) as in the paper."""
    present = _curves(sweep)
    rows = []
    fits = {}
    for stage in STAGES:
        row = [stage]
        for curve in present:
            # SS: fit per size, then average (the paper averages nine sizes).
            ss_serials = []
            for size in _sizes(sweep):
                split = sweep[(curve, size)][stage].split
                sp = strong_scaling(split, spec, threads)
                s, _p = amdahl_fit(sp)
                ss_serials.append(s)
            ss_serial = sum(ss_serials) / len(ss_serials)
            # WS: fit on the doubling ladder.
            sizes = _sizes(sweep)
            pairs = [(2**i, sizes[i]) for i in range(min(6, len(sizes)))]
            splits = {n: sweep[(curve, size)][stage].split for n, size in pairs}
            ws = weak_scaling(splits, spec)
            ws_serial, _ = gustafson_fit(ws)
            ec = _CURVE_SHORT[curve]
            fits[(stage, ec)] = {
                "ss_serial": 100 * ss_serial, "ss_parallel": 100 * (1 - ss_serial),
                "ws_serial": 100 * ws_serial, "ws_parallel": 100 * (1 - ws_serial),
            }
            row.extend([
                100 * ss_serial, 100 * (1 - ss_serial),
                100 * ws_serial, 100 * (1 - ws_serial),
            ])
        rows.append(row)
    return ExperimentResult(
        ident="Table6",
        title=f"Scalability: serial/parallel % on {spec.name} (SS=Amdahl, WS=Gustafson)",
        headers=["stage"] + [
            f"{kind}-{_CURVE_SHORT[c]} {part}"
            for c in present
            for kind, part in (("SS", "ser"), ("SS", "par"),
                               ("WS", "ser"), ("WS", "par"))
        ],
        rows=rows,
        extras={"fits": fits},
        floatfmt=".1f",
    )
