"""Trace export: Chrome-trace JSON and flamegraph formats.

Everything the repo renders for ``chrome://tracing`` / Perfetto is a tree
of timed bars, so there is **one** Trace Event writer,
:func:`spans_to_chrome_trace`, over :class:`repro.obs.spans.Span` trees.
Measured span trees go in as they are; two converters put the other
recordings on the same shape: :func:`regions_to_spans` (per-stage
:class:`~repro.perf.trace.Tracer` region trees on the cost model's clock —
the closest equivalent to opening a VTune recording of the stage) and
:func:`requests_to_spans` (a load run's per-request phase breakdowns).

The deep profiler's collapsed stacks (:mod:`repro.obs.prof`) export two
ways: ``collapsed_to_text`` emits the classic ``flamegraph.pl`` /
``inferno`` input format (one ``stack weight`` line per unique stack) and
``to_speedscope`` emits a speedscope JSON document with one sampled
profile per protocol stage.

Ordering is deterministic everywhere — canonical protocol stages first
(Fig. 1 order), extra keys sorted, tid lanes in natural label order — so
two exports of the same run are byte-identical regardless of dict
construction order.
"""

from __future__ import annotations

import json
import re

from repro.obs.spans import Span
from repro.perf.costmodel import aggregate

__all__ = [
    "collapsed_to_text",
    "regions_to_spans",
    "requests_to_spans",
    "spans_to_chrome_trace",
    "to_speedscope",
]

#: Canonical stage order (mirrors ``repro.workflow.STAGES``, which this
#: low-level module must not import).
_STAGE_ORDER = ("compile", "setup", "witness", "proving", "verifying")


def _ordered_stages(mapping):
    """Keys of *mapping* in canonical protocol order, extras sorted last."""
    known = [s for s in _STAGE_ORDER if s in mapping]
    extras = sorted(k for k in mapping if k not in _STAGE_ORDER)
    return known + extras


def _natural(label):
    """Sort key that puts ``worker 9`` before ``worker 10``."""
    return [int(part) if part.isdigit() else part
            for part in re.split(r"(\d+)", label)]


def spans_to_chrome_trace(roots):
    """Render :class:`~repro.obs.spans.Span` trees as Trace Event Format
    JSON (a string) — the one chrome-trace writer.

    Each root in the list *roots* gets its own ``pid`` lane (in the order
    given) named after it.  Inside a pid, tid 1 is the main lane; a span
    carrying ``meta["lane"]`` moves itself and its subtree onto the tid
    lane of that label, so Perfetto shows worker tasks or concurrent
    requests side by side instead of collapsed onto one thread.  ``args``
    is the span's meta plus whichever of cpu seconds, peak-RSS delta and
    GC collections it measured.
    """
    bars, names = [], []

    def name_lane(kind, pid, tid, label):
        names.append({"name": kind, "ph": "M", "pid": pid, "tid": tid,
                      "args": {"name": label}})

    def emit(sp, pid, tid, lanes):
        tid = lanes.get(sp.meta.get("lane"), tid)
        measured = {"cpu_s": round(sp.cpu_s, 6),
                    "rss_peak_delta_kb": sp.rss_peak_delta_kb,
                    "gc_collections": sp.gc_collections}
        bars.append({
            "name": sp.name, "ph": "X",
            "ts": round(sp.start_s * 1e6, 3),
            "dur": round(max(sp.wall_s * 1e6, 0.001), 3),
            "pid": pid, "tid": tid,
            "args": {**{k: v for k, v in measured.items() if v}, **sp.meta},
        })
        for child in sp.children:
            emit(child, pid, tid, lanes)

    for pid, root in enumerate(roots, start=1):
        labels = sorted({sp.meta["lane"] for sp in root.walk()
                         if "lane" in sp.meta}, key=_natural)
        lanes = {label: tid for tid, label in enumerate(labels, start=2)}
        emit(root, pid, 1, lanes)
        name_lane("process_name", pid, 0, root.name)
        for label, tid in [("main", 1), *lanes.items()] if lanes else ():
            name_lane("thread_name", pid, tid, label)
    return json.dumps({
        "traceEvents": bars + names,
        "displayTimeUnit": "ms",
        "otherData": {"roots": [root.name for root in roots]},
    }, indent=1)


def regions_to_spans(stage_tracers, freq_ghz=3.0):
    """``{stage: Tracer}`` -> one root :class:`~repro.obs.spans.Span` per
    stage (canonical order, extras sorted) on the cost model's clock.

    Durations are modeled cycles converted at *freq_ghz*; sibling regions
    are laid out sequentially after their parent's own work, children
    nested within parents, matching how the work interleaves on one
    thread.  Each tracer's ``<root>`` region is renamed to its stage.
    """
    us_per_cycle = 1.0 / (freq_ghz * 1e3)

    def convert(rec, name, start_us, depth):
        own = aggregate(rec.counts)
        sp = Span(name=name, depth=depth, start_s=start_us / 1e6, meta={
            "parallel": rec.parallel,
            "items": rec.items,
            "instructions": round(own.instructions),
            "cycles": round(own.cycles),
        })
        dur_us = own.cycles * us_per_cycle
        cursor = start_us + dur_us
        for ch in rec.children:
            child = convert(ch, ch.name, cursor, depth + 1)
            sp.children.append(child)
            dur_us += child.wall_s * 1e6
            cursor += max(child.wall_s * 1e6, 0.001)
        sp.wall_s = dur_us / 1e6
        return sp

    return [convert(stage_tracers[stage].root, stage, 0.0, 0)
            for stage in _ordered_stages(stage_tracers)]


def requests_to_spans(results):
    """:class:`~repro.serve.jobs.JobResult` s -> one root
    :class:`~repro.obs.spans.Span` per request class (``prove`` /
    ``verify``, sorted) on the service's shared timeline.

    Every request is a bar spanning ``total_s`` on its own ``request
    <id>`` lane, tiled by one sub-bar per recorded phase in canonical
    :data:`~repro.serve.jobs.PHASES` order — the durations are the
    *additive* accounting buckets, so a retried request's two compute
    attempts render as one ``compute`` bar, not the exact interleaving.
    Untracked results (client-side sheds, no phase dict) are skipped.
    """
    from repro.serve.jobs import PHASES

    roots = {}
    for r in sorted((r for r in results if r.phases),
                    key=lambda r: (r.kind, r.request_id)):
        bar = Span(
            name=f"{r.kind} #{r.request_id} [{r.status}]", depth=1,
            start_s=r.start_s, wall_s=r.total_s, meta={
                "lane": f"request {r.request_id}",
                "status": r.status,
                "error_code": r.error_code,
                "attempts": r.attempts,
                "batched": r.batched,
                "degraded": r.degraded,
                "phase_error_s": round(r.phase_error(), 9),
            })
        cursor = r.start_s
        for phase in PHASES:
            dur = r.phases.get(phase, 0.0)
            if dur > 0:
                bar.children.append(Span(name=phase, depth=2, start_s=cursor,
                                         wall_s=dur))
                cursor += dur
        roots.setdefault(r.kind, Span(name=r.kind, depth=0)).children.append(bar)
    for root in roots.values():  # service start to the class's last settle
        root.wall_s = max(bar.start_s + bar.wall_s for bar in root.children)
    return list(roots.values())


def collapsed_to_text(stage_stacks):
    """Collapsed stacks as ``flamegraph.pl`` input (a string).

    *stage_stacks* maps stage name -> ``{collapsed-stack: seconds}`` (the
    deep profiler's :meth:`~repro.obs.prof.DeepProfiler.stage_stacks`).
    Each line is ``stage;mod:fn;mod:fn... weight`` with the weight in
    microseconds (flamegraph tooling expects integer sample counts; zero
    weights after rounding are dropped).  Lines are ordered by stage, then
    by stack, so the artifact diffs cleanly between runs.
    """
    lines = []
    for stage in _ordered_stages(stage_stacks):
        for stack, secs in sorted(stage_stacks[stage].items()):
            us = round(secs * 1e6)
            if us <= 0:
                continue
            lines.append(f"{stage};{stack} {us}")
    return "\n".join(lines) + "\n"


def to_speedscope(stage_stacks, name="repro deep profile"):
    """Collapsed stacks as a speedscope JSON document (a string).

    One ``sampled`` profile per stage (canonical order) over a shared
    frame table; weights are seconds of self time.  Open the written file
    at https://www.speedscope.app or with a local speedscope install.
    Frame indices are assigned in first-seen order over the
    deterministically ordered stacks, so the document is reproducible.
    """
    frames = []
    frame_index = {}

    def frame_of(label):
        idx = frame_index.get(label)
        if idx is None:
            idx = frame_index[label] = len(frames)
            frames.append({"name": label})
        return idx

    profiles = []
    for stage in _ordered_stages(stage_stacks):
        samples = []
        weights = []
        total = 0.0
        for stack, secs in sorted(stage_stacks[stage].items()):
            if secs <= 0:
                continue
            samples.append([frame_of(f) for f in stack.split(";")])
            weights.append(round(secs, 9))
            total += secs
        profiles.append({
            "type": "sampled",
            "name": stage,
            "unit": "seconds",
            "startValue": 0,
            "endValue": round(total, 9),
            "samples": samples,
            "weights": weights,
        })
    return json.dumps({
        "$schema": "https://www.speedscope.app/file-format-schema.json",
        "name": name,
        "activeProfileIndex": 0,
        "exporter": "repro.perf.export",
        "shared": {"frames": frames},
        "profiles": profiles,
    }, indent=1)
