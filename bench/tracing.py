"""The benchmark's own span recorder and the wrappers of the traced pass.

Spans are taken from *outside* the program.  For the traced pass only,
:func:`install` rebinds public names where their callers look them up
(``repro.groth16.prover.compute_h``, ``repro.qap.qap.coset_ntt``,
``PairingEngine.miller_loop`` ...) to wrappers that record one span
``(id, parent, layer, name, start, end, count)`` per call; :func:`remove`
puts the original objects back.  Nothing under ``src/`` changes, and no
``repro.perf.trace`` tracer is ever installed: that would pin ``msm_auto``
to the reference kernel and measure a different program.

Spans nest per thread (the serving workload computes on its own thread), so
a span's self time is its duration minus its direct children's durations.
Primitive field and curve operations are never wrapped — a wrapper per
modular multiplication would be most of what it measured; ``layers.py``
times those in loops of their own.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

__all__ = [
    "Recorder",
    "Span",
    "TARGETS",
    "Target",
    "install",
    "installed",
    "remove",
    "self_times",
]


@dataclass
class Span:
    id: int
    parent: int | None
    layer: str
    name: str
    start: float
    end: float = 0.0
    #: Work items the call was given (MSM points, scalars of a table
    #: sweep); 0 where the call has no natural count.
    count: int = 0

    @property
    def duration(self):
        return self.end - self.start

    def to_row(self):
        return [self.id, self.parent, self.layer, self.name,
                round(self.start, 6), round(self.end, 6), self.count]


class Recorder:
    """In-memory span store; spans are written out with the result."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._open = threading.local()

    def _stack(self):
        stack = getattr(self._open, "stack", None)
        if stack is None:
            stack = self._open.stack = []
        return stack

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else None

    @contextmanager
    def span(self, layer, name, count=0):
        stack = self._stack()
        s = Span(next(self._ids), stack[-1].id if stack else None,
                 layer, name, time.perf_counter(), count=count)
        stack.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            stack.pop()
            self.spans.append(s)

    def rows(self):
        return [s.to_row() for s in sorted(self.spans, key=lambda s: s.id)]


def self_times(spans, under=None):
    """``{(layer, name): [calls, self seconds, work items]}`` over *spans*.

    With *under* — a ``(layer, name)`` pair — only the spans at or below a
    span of that name count (one stage of the run); its own entry then
    holds the stage's self time, and the values sum to the stage's wall.
    """
    by_id = {s.id: s for s in spans}
    child_time = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.duration

    inside = {}

    def is_inside(s):
        if under is None:
            return True
        known = inside.get(s.id)
        if known is None:
            if (s.layer, s.name) == under:
                known = True
            else:
                parent = by_id.get(s.parent)
                known = parent is not None and is_inside(parent)
            inside[s.id] = known
        return known

    out = defaultdict(lambda: [0, 0.0, 0])
    for s in spans:
        if is_inside(s):
            row = out[(s.layer, s.name)]
            row[0] += 1
            row[1] += s.duration - child_time[s.id]
            row[2] += s.count
    return dict(out)


# -- wrappers ----------------------------------------------------------------------


@dataclass(frozen=True)
class Target:
    """One name to rebind: ``owner`` is a module path, or ``module:Class``."""

    owner: str
    attr: str
    layer: str
    name: str
    #: ``name_of(*args)`` refines the span name from the call (G1 or G2).
    name_of: object = None
    #: ``count_of(*args)`` gives the call's work items.
    count_of: object = None
    #: Call straight through when the enclosing span already has this
    #: layer and name: ``mul_many`` calls ``mul`` once per scalar, and a
    #: span per scalar would be thousands of spans saying nothing new.
    collapse: bool = False


def _msm_name(group, *_rest, **_kw):
    return "g2" if group.name.endswith("G2") else "g1"


def _msm_points(_group, points, *_rest, **_kw):
    return len(points)


def _table_name(table, *_rest):
    return "fixed_base." + _msm_name(table.group)


def _table_scalars(_table, arg):
    return len(arg) if isinstance(arg, (list, tuple)) else 1


def _init_name(_table, base, *_rest, **_kw):
    return "fixed_base." + _msm_name(base.group)


def _map_name(_pool, fn_name, *_rest, label=None, **_kw):
    return f"map.{label or fn_name}"


_FB = "repro.msm.fixed_base:FixedBaseTable"
_PE = "repro.curves.pairing:PairingEngine"

#: Every name the traced pass rebinds, where its caller looks it up.
TARGETS = (
    # stage boundaries: the bench and the service both reach these through
    # the package namespace at call time
    Target("repro.circuit.compiler", "compile_circuit", "circuit", "compile"),
    Target("repro.groth16", "setup", "groth16", "setup"),
    Target("repro.groth16", "generate_witness", "groth16", "witness"),
    Target("repro.groth16", "prove", "groth16", "prove"),
    Target("repro.groth16", "verify", "groth16", "verify"),
    Target("repro.groth16.batch", "batch_verify", "groth16", "batch_verify"),
    Target("repro.groth16.serialize", "proof_from_bytes", "groth16", "proof_from_bytes"),
    Target("repro.groth16.serialize", "vk_from_bytes", "groth16", "vk_from_bytes"),
    Target("repro.groth16.serialize", "pk_to_bytes", "groth16", "pk_to_bytes"),
    Target("repro.groth16.serialize", "pk_from_bytes", "groth16", "pk_from_bytes"),
    # inside setup
    Target("repro.groth16.setup", "column_evaluations_at", "qap", "column_evaluations"),
    Target(_FB, "__init__", "msm", "fixed_base", name_of=_init_name, collapse=True),
    Target(_FB, "mul", "msm", "fixed_base", name_of=_table_name,
           count_of=_table_scalars, collapse=True),
    Target(_FB, "mul_many", "msm", "fixed_base", name_of=_table_name,
           count_of=_table_scalars, collapse=True),
    # inside prove
    Target("repro.groth16.prover", "compute_h", "qap", "compute_h"),
    Target("repro.groth16.prover", "resilient_msm", "msm", "msm",
           name_of=_msm_name, count_of=_msm_points),
    Target("repro.qap.qap", "intt", "poly", "intt"),
    Target("repro.qap.qap", "coset_ntt", "poly", "coset_ntt"),
    Target("repro.qap.qap", "coset_intt", "poly", "coset_intt"),
    # inside verify / batch_verify
    Target(_PE, "pairing_check", "curves", "pairing_check"),
    Target(_PE, "miller_loop", "curves", "miller_loop"),
    Target(_PE, "final_exponentiation", "curves", "final_exp"),
    # the pool
    Target("repro.parallel.pool:WorkerPool", "map", "parallel", "map", name_of=_map_name),
)


def _resolve(owner):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


def _wrap(recorder, fn, target):
    layer, name = target.layer, target.name
    name_of, count_of, collapse = target.name_of, target.count_of, target.collapse

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span_name = name_of(*args, **kwargs) if name_of is not None else name
        if collapse:
            top = recorder.current()
            if top is not None and top.layer == layer and top.name == span_name:
                return fn(*args, **kwargs)
        count = count_of(*args, **kwargs) if count_of is not None else 0
        with recorder.span(layer, span_name, count):
            return fn(*args, **kwargs)

    return wrapper


def install(recorder):
    """Rebind every target to a recording wrapper; returns the handle
    :func:`remove` needs (owner, attribute, the original object)."""
    handle = []
    for target in TARGETS:
        owner = _resolve(target.owner)
        original = vars(owner)[target.attr]
        setattr(owner, target.attr, _wrap(recorder, original, target))
        handle.append((owner, target.attr, original))
    return handle


def remove(handle):
    for owner, attr, original in reversed(handle):
        setattr(owner, attr, original)


@contextmanager
def installed(recorder):
    handle = install(recorder)
    try:
        yield recorder
    finally:
        remove(handle)
