"""Real-interpreter deep profiler — the *measured* Tables IV/V and Fig. 5.

The paper observes circom/snarkjs with VTune (hot functions, Table IV),
DynamoRIO (dynamic opcode mix, Table V) and ``perf`` (loads/stores,
Fig. 5).  ``repro.perf`` *models* all three on traced primitives; this
module measures what the real CPython interpreter executes, so the model
can be held against reality (:mod:`repro.obs.drift` is the gate):

- **Hot-function attribution** — a deterministic call profiler built on
  ``sys.setprofile``: every Python call / return and C call / return is
  timed (``perf_counter`` wall, ``process_time`` CPU), self time is
  attributed to the innermost function, and per-stage statistics are the
  measured Table-IV analog.  ``sys.monitoring`` (3.12+) offers a
  lower-overhead hook but differs across versions; one deterministic
  ``setprofile`` code path keeps the attribution identical everywhere,
  and the overhead is bounded and tested (docs/PROFILING.md).
- **Measured opcode mix** — ``dis`` over the code objects that actually
  executed, weighted by measured call counts and classified with the
  shared :func:`repro.perf.opcodes.classify_opname` table (explicit
  ``other`` bucket).  The measured Table-V analog.
- **Allocation tracking** — ``tracemalloc`` around each stage: net and
  peak traced bytes plus the top allocating source lines.  The measured
  Fig.-5 analog (what the stage allocates rather than loads/stores,
  which CPython does not expose portably).  It runs on a repeat run of
  the stage with no hook installed (:meth:`DeepProfiler.allocations`):
  tracemalloc's per-allocation cost is far from uniform, so under the
  call hook it would skew the timings.
- **Collapsed stacks** — self time keyed by the full call stack, ready
  for flamegraph tooling and the speedscope export in
  :mod:`repro.perf.export`.

The profiler is not ambient: nothing in the pipeline looks for one.
:func:`deep_profile_run` wraps each ``Workflow.run_stage`` call in
:meth:`DeepProfiler.stage` itself, so an unprofiled run has no hook to
check for, and a profile includes ``run_stage``'s own few frames.
Enabled, a deep-profiled stage is documented to stay within
:data:`ENABLED_OVERHEAD_BOUND` of its unprofiled wall time (the overhead
contract test enforces it).

Caveats worth knowing: cumulative time double-counts recursive frames
(standard deterministic-profiler behavior); the opcode mix assumes each
call executes its body once (loops inside a function weight as one pass);
and ``process_time`` is process-wide, so CPU self time of very short
calls quantizes to zero on coarse clocks.
"""

from __future__ import annotations

import dis
import functools
import gc
import sys
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.perf.opcodes import OPCODE_CLASSES, classify_opname

__all__ = [
    "DeepProfiler",
    "ENABLED_OVERHEAD_BOUND",
    "FuncStat",
    "StageDeepProfile",
    "classify_function",
    "deep_profile_run",
    "render_deep_profile",
]

#: Documented bound on the wall-time slowdown of a deep-profiled stage
#: versus an unprofiled one (pure-Python call-dense code under a
#: per-event ``setprofile`` handler).  The overhead contract test
#: (tests/obs/test_prof_overhead.py) asserts it; see docs/PROFILING.md
#: before loosening.
ENABLED_OVERHEAD_BOUND = 60.0

#: How the hook is installed — recorded in the ledger's profiler block so
#: records from future backends stay distinguishable.
BACKEND = "sys.setprofile"


# -- function-family classification (the measured Table IV buckets) ----------------

#: Longest-prefix rules mapping a function's module to the cost model's
#: Table-IV function families (:data:`repro.perf.functions.FUNCTION_DESCRIPTIONS`).
#: Measured self time aggregates into these buckets so the drift gate can
#: compare measured and modeled hot-function rankings like for like.
FAMILY_PREFIXES = (
    ("repro.fields", "bigint"),
    ("repro.curves.pairing", "pairing"),
    ("repro.curves", "ec"),
    ("repro.poly", "fft"),
    ("repro.qap", "fft"),
    ("repro.msm", "msm"),
    ("repro.circuit", "compiler"),
    ("repro.groth16.witness", "compiler"),
    ("repro.groth16.serialize", "parser"),
    ("repro.plonk.transcript", "hash"),
    ("repro.plonk.kzg", "ec"),
    ("hashlib", "hash"),
    ("_hashlib", "hash"),
)


def classify_function(module):
    """Table-IV family for a measured function, by longest module prefix.

    Anything outside the recognized kernels — the groth16 drivers,
    stdlib, the telemetry layer itself — lands in ``"other"``.
    """
    best = "other"
    best_len = -1
    for prefix, family in FAMILY_PREFIXES:
        if len(prefix) > best_len and (
                module == prefix or module.startswith(prefix + ".")):
            best, best_len = family, len(prefix)
    return best


# -- per-stage measurement ---------------------------------------------------------


@dataclass
class FuncStat:
    """Measured statistics for one function within one stage."""

    module: str
    qualname: str
    family: str
    ncalls: int = 0
    cum_s: float = 0.0       # wall, including callees (recursion double-counts)
    self_s: float = 0.0      # wall, excluding callees
    cpu_self_s: float = 0.0  # process_time, excluding callees

    @property
    def name(self):
        return f"{self.module}:{self.qualname}"

    def to_dict(self):
        return {
            "name": self.name,
            "family": self.family,
            "ncalls": self.ncalls,
            "cum_s": round(self.cum_s, 6),
            "self_s": round(self.self_s, 6),
            "cpu_self_s": round(self.cpu_self_s, 6),
        }


@dataclass
class StageDeepProfile:
    """Everything the deep profiler measured about one protocol stage."""

    stage: str
    wall_s: float
    functions: list            # [FuncStat], by cpu_self_s, then self_s, descending
    stacks: dict               # "mod:fn;mod:fn;..." -> self seconds
    opcode_counts: dict        # class -> weighted dynamic opcode count
    calls: int = 0
    alloc: dict or None = None  # set by DeepProfiler.allocations

    def family_shares(self):
        """``{family: fraction of stage self time}`` over all functions."""
        total = sum(f.self_s for f in self.functions)
        if total <= 0:
            return {}
        shares = {}
        for f in self.functions:
            shares[f.family] = shares.get(f.family, 0.0) + f.self_s / total
        return shares

    def opcode_shares(self):
        """``{class: percent}`` over :data:`OPCODE_CLASSES` (sums to ~100)."""
        total = sum(self.opcode_counts.values())
        if total <= 0:
            return {cls: 0.0 for cls in OPCODE_CLASSES}
        return {cls: 100.0 * self.opcode_counts.get(cls, 0) / total
                for cls in OPCODE_CLASSES}

    def top(self, n=10):
        return self.functions[:n]

    def to_dict(self, top_functions=20, top_stacks=200):
        """JSON-ready form — the per-stage entry of the ledger record's
        ``profile`` block.  Bounded: only the hottest *top_functions*
        functions and *top_stacks* stacks are persisted."""
        stacks = sorted(self.stacks.items(), key=lambda kv: -kv[1])[:top_stacks]
        return {
            "wall_s": round(self.wall_s, 6),
            "calls": self.calls,
            "functions": [f.to_dict() for f in self.functions[:top_functions]],
            "family_shares": {k: round(v, 4)
                              for k, v in sorted(self.family_shares().items())},
            "opcode_shares": {k: round(v, 2)
                              for k, v in self.opcode_shares().items()},
            "opcodes": int(sum(self.opcode_counts.values())),
            "stacks": {k: round(v, 6) for k, v in stacks},
            "alloc": self.alloc,
        }


class _Collector:
    """The live ``setprofile`` target for one stage.

    Keeps a shadow stack of ``[key, frame-or-cfunc, t0_wall, t0_cpu,
    child_wall, child_cpu, path]`` entries, *path* being the tuple of keys
    from the stack's bottom to this entry (built once, on the call, by
    extending the caller's).  Returns of frames that were already
    live when the hook was installed do not match the shadow top and are
    ignored; entries still open when the hook is removed are drained with
    the stage-end timestamps.
    """

    __slots__ = ("functions", "stacks", "codes", "stack", "calls")

    def __init__(self):
        self.functions = {}   # key -> [ncalls, cum_s, self_s, cpu_self_s]
        self.stacks = {}      # tuple(keys) -> self seconds
        self.codes = {}       # key -> code object (Python functions only)
        self.stack = []
        self.calls = 0

    def handler(self, frame, event, arg):
        t = time.perf_counter()
        c = time.process_time()
        if event == "call":
            code = frame.f_code
            key = (frame.f_globals.get("__name__") or "?", code.co_qualname)
            if key not in self.codes:
                self.codes[key] = code
            self._push(key, frame, t, c)
        elif event == "return":
            if self.stack and self.stack[-1][1] is frame:
                self._pop(t, c)
        elif event == "c_call":
            key = (getattr(arg, "__module__", None) or "<builtin>",
                   getattr(arg, "__qualname__", None) or repr(arg))
            self._push(key, arg, t, c)
        elif event in ("c_return", "c_exception"):
            if self.stack and self.stack[-1][1] is arg:
                self._pop(t, c)

    def _push(self, key, obj, t, c):
        stack = self.stack
        path = stack[-1][6] + (key,) if stack else (key,)
        stack.append([key, obj, t, c, 0.0, 0.0, path])
        self.calls += 1

    def _pop(self, t, c):
        key, _obj, t0, c0, child_w, child_c, path = self.stack.pop()
        wall = t - t0
        cpu = c - c0
        self_w = wall - child_w
        if self_w < 0.0:
            self_w = 0.0
        self_c = cpu - child_c
        if self_c < 0.0:
            self_c = 0.0
        stat = self.functions.get(key)
        if stat is None:
            stat = self.functions[key] = [0, 0.0, 0.0, 0.0]
        stat[0] += 1
        stat[1] += wall
        stat[2] += self_w
        stat[3] += self_c
        self.stacks[path] = self.stacks.get(path, 0.0) + self_w
        if self.stack:
            top = self.stack[-1]
            top[4] += wall
            top[5] += cpu

    def drain(self):
        t = time.perf_counter()
        c = time.process_time()
        while self.stack:
            self._pop(t, c)


@functools.lru_cache(maxsize=4096)
def _opcode_class_counts(code):
    """``{class: static opcode count}`` of one code object.

    Memoized on the code object itself (code objects hash and compare by
    content), so each function is disassembled once per process, not once
    per stage or per profiler.  Callers must not mutate the result."""
    counts = dict.fromkeys(OPCODE_CLASSES, 0)
    for instr in dis.get_instructions(code):
        counts[classify_opname(instr.opname)] += 1
    return counts


class DeepProfiler:
    """Owns one run's per-stage deep profiles.

    :meth:`stage` times a stage under the call hook; :meth:`allocations`
    tracks a repeat run of it with ``tracemalloc`` alone.  *top_alloc* is
    how many allocating source lines to keep per stage.
    """

    def __init__(self, top_alloc=10):
        self.top_alloc = top_alloc
        self.stages = {}          # stage name -> StageDeepProfile

    @contextmanager
    def stage(self, name):
        """Measure everything run inside the ``with`` as stage *name*."""
        if sys.getprofile() is not None:
            raise RuntimeError("a profile hook is already installed")
        col = _Collector()
        t0 = time.perf_counter()
        sys.setprofile(col.handler)
        try:
            yield col
        finally:
            sys.setprofile(None)
            wall = time.perf_counter() - t0
            col.drain()
            self.stages[name] = self._build(name, col, wall)

    @contextmanager
    def allocations(self, name):
        """Track the allocations of a repeat run of stage *name*, already
        profiled by :meth:`stage`, into that profile's ``alloc`` block."""
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        snap0 = tracemalloc.take_snapshot()
        size0, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        try:
            yield
        finally:
            size1, peak = tracemalloc.get_traced_memory()
            snap1 = tracemalloc.take_snapshot()
            if started:
                tracemalloc.stop()
            self.stages[name].alloc = self._alloc_block(
                snap0, snap1, size1 - size0, peak)

    #: Allocation sites excluded from the per-stage top list: this
    #: module's frames and tracemalloc's own snapshots.
    _ALLOC_FILTERS = (
        tracemalloc.Filter(False, __file__),
        tracemalloc.Filter(False, tracemalloc.__file__),
    )

    def _alloc_block(self, snap0, snap1, net_bytes, peak_bytes):
        top = []
        try:
            snap0 = snap0.filter_traces(self._ALLOC_FILTERS)
            snap1 = snap1.filter_traces(self._ALLOC_FILTERS)
            diffs = snap1.compare_to(snap0, "lineno")
        except Exception:  # snapshot comparison is best-effort
            diffs = []
        for d in diffs[:self.top_alloc]:
            frame = d.traceback[0]
            top.append({
                "site": f"{frame.filename}:{frame.lineno}",
                "kb": round(d.size_diff / 1024.0, 1),
                "count": d.count_diff,
            })
        return {
            "net_kb": round(net_bytes / 1024.0, 1),
            "peak_kb": round(peak_bytes / 1024.0, 1),
            "top": top,
        }

    def _build(self, name, col, wall):
        functions = []
        opcode_counts = dict.fromkeys(OPCODE_CLASSES, 0)
        for key, (ncalls, cum, self_w, self_c) in col.functions.items():
            module, qualname = key
            functions.append(FuncStat(
                module=module, qualname=qualname,
                family=classify_function(module),
                ncalls=ncalls, cum_s=cum, self_s=self_w, cpu_self_s=self_c,
            ))
            code = col.codes.get(key)
            if code is not None:
                for cls, n in _opcode_class_counts(code).items():
                    opcode_counts[cls] += n * ncalls
        # Rank by CPU self time: wall time also grows while the process
        # waits for a core, so a busy machine would reorder the table.
        functions.sort(key=lambda f: (-f.cpu_self_s, -f.self_s, f.name))
        stacks = {
            ";".join(f"{m}:{q}" for m, q in skey): secs
            for skey, secs in col.stacks.items()
        }
        return StageDeepProfile(
            stage=name, wall_s=wall, functions=functions, stacks=stacks,
            opcode_counts=opcode_counts, calls=col.calls,
        )

    # -- aggregate views ---------------------------------------------------------

    def stage_stacks(self):
        """``{stage: {collapsed-stack: seconds}}`` for the exporters."""
        return {name: dict(p.stacks) for name, p in self.stages.items()}

    def measured_blocks(self):
        """``{stage: {"family_shares", "opcode_shares", "wall_s"}}`` — the
        shape :func:`repro.obs.drift.check_drift` consumes (also embedded
        in every ledger ``profile`` block)."""
        return {
            name: {
                "wall_s": p.wall_s,
                "family_shares": p.family_shares(),
                "opcode_shares": p.opcode_shares(),
            }
            for name, p in self.stages.items()
        }

    def to_profile_block(self, top_functions=20, top_stacks=200):
        """The ledger record's ``profile`` block (bounded, JSON-ready)."""
        return {
            "profiler": {
                "backend": BACKEND,
                "alloc": any(p.alloc is not None
                             for p in self.stages.values()),
                "python": sys.version.split()[0],
            },
            "stages": {
                name: p.to_dict(top_functions=top_functions,
                                top_stacks=top_stacks)
                for name, p in self.stages.items()
            },
        }


def deep_profile_run(curve_name, size, workload="exponentiate", seed=0,
                     alloc=True):
    """Run the five-stage protocol under the deep profiler.

    One run under the call hook; with *alloc*, a repeat run of the same
    seeded protocol under :meth:`DeepProfiler.allocations` fills in each
    stage's allocation block.  Returns ``(workflow, profiler)``, the
    workflow being the hooked run's; raises ``RuntimeError`` when a run
    produces a rejected proof.  The CLI's ``deep-profile`` verb drives
    this.
    """
    from repro.curves import get_curve
    from repro.harness.circuits import build_workload
    from repro.workflow import STAGES, Workflow

    curve = get_curve(curve_name)

    def run(scope):
        builder, inputs = build_workload(workload, curve, size)
        wf = Workflow(curve, builder, inputs, seed=seed)
        for stage in STAGES:
            # A full collection the stage did not cause (garbage of earlier
            # stages, or of earlier work in the process) would otherwise
            # land, whole, on whichever function allocated when it fired.
            gc.collect()
            with scope(stage):
                wf.run_stage(stage)
        if wf.accepted is not True:
            raise RuntimeError(
                f"deep-profiled workflow produced a rejected proof "
                f"({curve_name}, n={size})")
        return wf

    profiler = DeepProfiler()
    wf = run(profiler.stage)
    if alloc:
        # The repeat run finds the process memos (``pairing._ENGINES``)
        # filled; at bn128/2^3 its blocks match a cold run's within 1 KiB.
        run(profiler.allocations)
    return wf, profiler


# -- text renderers ----------------------------------------------------------------


def render_hot_functions(profile, top=8):
    """Measured Table-IV analog for one stage: hottest functions by self
    time, with family attribution and call counts."""
    lines = [
        f"{profile.stage}: {profile.wall_s:.4f}s wall, "
        f"{profile.calls} calls",
        f"  {'self':>9} {'cum':>9} {'calls':>9}  {'family':<9} function",
    ]
    for f in profile.top(top):
        lines.append(
            f"  {f.self_s:8.4f}s {f.cum_s:8.4f}s {f.ncalls:>9}  "
            f"{f.family:<9} {f.name}"
        )
    return "\n".join(lines)


def render_opcode_table(profiler):
    """Measured Table-V analog: opcode-class percentages per stage."""
    header = (f"{'stage':<10}" + "".join(f"{cls + '%':>10}"
                                         for cls in OPCODE_CLASSES)
              + f"{'opcodes':>12}")
    lines = [header, "-" * len(header)]
    for name, p in profiler.stages.items():
        shares = p.opcode_shares()
        lines.append(
            f"{name:<10}"
            + "".join(f"{shares[cls]:10.1f}" for cls in OPCODE_CLASSES)
            + f"{int(sum(p.opcode_counts.values())):>12}"
        )
    return "\n".join(lines)


def render_alloc_table(profiler):
    """Measured Fig.-5 analog: net/peak traced allocation per stage."""
    rows = []
    for name, p in profiler.stages.items():
        if p.alloc is None:
            continue
        top = p.alloc["top"][0]["site"] if p.alloc["top"] else "-"
        rows.append((name, p.alloc["net_kb"], p.alloc["peak_kb"], top))
    if not rows:
        return "alloc: tracking disabled"
    header = f"{'stage':<10}{'net_kb':>12}{'peak_kb':>12}  top allocation site"
    lines = [header, "-" * len(header)]
    for name, net, peak, top in rows:
        lines.append(f"{name:<10}{net:>12.1f}{peak:>12.1f}  {top}")
    return "\n".join(lines)


def render_deep_profile(profiler, top=8):
    """The full text report: per-stage hot functions, the measured opcode
    mix, and the allocation table."""
    parts = [render_hot_functions(p, top=top)
             for p in profiler.stages.values()]
    parts.append("measured opcode mix (dis over executed code, "
                 "weighted by call counts):")
    parts.append(render_opcode_table(profiler))
    parts.append("allocations (tracemalloc):")
    parts.append(render_alloc_table(profiler))
    return "\n\n".join(parts)
