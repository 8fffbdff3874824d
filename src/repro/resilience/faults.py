"""Deterministic fault injection.

A :class:`FaultInjector` installed as ``RUN.faults`` (the run context,
docs/ARCHITECTURE.md) arms a *plan* of :class:`FaultSpec` entries, and
instrumented **sites** — every stage boundary plus the MSM/NTT/serialize
hot paths — ask it whether to fail:

    if RUN.faults is not None:
        RUN.faults.check("msm:pippenger")

A disabled site costs one attribute load and an ``is None`` test,
so production runs pay nothing.  Each spec names a site, a fault kind from
the :mod:`repro.resilience.errors` taxonomy, and the 1-based invocation of
that site at which it fires; it fires **once** and is then consumed, which
is what makes retry-based recovery observable.  The fault machines under
``tests/`` (docs/ROBUSTNESS.md) arm specs step by step and check that
every one ends recovered or typed.
"""

from __future__ import annotations

from repro.context import RUN, scoped
from repro.resilience.errors import (
    ArtifactCorruption,
    ResourceExhausted,
    StageTimeout,
    TransientFault,
)

__all__ = [
    "FaultInjector",
    "FaultSpec",
    "KINDS",
    "SITES",
    "fire",
    "injecting",
    "make_fault",
]

#: Fault kind -> taxonomy class raised at the site.
KINDS = {
    "transient": TransientFault,
    "timeout": StageTimeout,
    "corrupt": ArtifactCorruption,
    "oom": ResourceExhausted,
}

#: Every instrumented site of the pipeline and its artifacts: the stage
#: boundaries (checked once per attempt), the MSM and NTT kernels, and the
#: serialization sites, each checked by ``*_to_bytes`` and again by
#: ``*_from_bytes``.  The service adds ``SERVE_SITES`` (repro.serve).
SITES = (
    "stage:compile",
    "stage:setup",
    "stage:witness",
    "stage:proving",
    "stage:verifying",
    "msm:pippenger",
    "ntt:transform",
    "serialize:proof",
    "serialize:vk",
    "serialize:pk",
)


class FaultSpec:
    """One planned fault: raise *kind* on the *hit*-th check of *site*."""

    __slots__ = ("site", "kind", "hit", "fired")

    def __init__(self, site, kind, hit=1):
        if kind not in KINDS:
            raise ValueError(f"unknown fault kind {kind!r}; choose from {sorted(KINDS)}")
        if hit < 1:
            raise ValueError(f"hit must be >= 1, got {hit}")
        self.site = site
        self.kind = kind
        self.hit = hit
        self.fired = False

    def __repr__(self):
        state = "fired" if self.fired else "armed"
        return f"FaultSpec({self.site}, {self.kind}, hit={self.hit}, {state})"


class FaultInjector:
    """Counts site invocations and raises the planned faults."""

    def __init__(self, plan):
        self.plan = list(plan)
        self.hits = {}

    def check(self, site):
        """Called from an instrumented site; raises if a spec is due."""
        spec = self.arm(site)
        if spec is not None:
            raise fire(spec)

    def arm(self, site):
        """Count one invocation of *site* and return the due spec, if any,
        **without raising** (or marking it fired).

        :meth:`check` is this plus :func:`fire`.  The parallel kernels call
        it directly: the parent arms the site once per kernel call (same
        hit cadence as the serial path), sends the due spec into a worker
        where it actually fires, and fires it here when the worker reports
        back.
        """
        n = self.hits.get(site, 0) + 1
        self.hits[site] = n
        for spec in self.plan:
            if not spec.fired and spec.site == site and spec.hit == n:
                return spec
        return None

    def fired(self):
        return [s for s in self.plan if s.fired]

    def pending(self):
        return [s for s in self.plan if not s.fired]


def make_fault(spec):
    """Build the taxonomy exception a :class:`FaultSpec` stands for."""
    cls = KINDS[spec.kind]
    msg = f"injected {spec.kind} fault at {spec.site} (hit {spec.hit})"
    if cls is StageTimeout:
        return cls(msg, stage=spec.site)
    if cls is ArtifactCorruption:
        return cls(msg, artifact=spec.site)
    return cls(msg)


def fire(spec):
    """Mark *spec* fired, count it, and return its exception to raise."""
    spec.fired = True
    m = RUN.metrics
    if m is not None:
        m.inc("repro_resilience_faults_injected_total")
    return make_fault(spec)


def injecting(plan_or_injector):
    """Install a :class:`FaultInjector` (or wrap a plan) as ``RUN.faults``."""
    inj = (plan_or_injector if isinstance(plan_or_injector, FaultInjector)
           else FaultInjector(plan_or_injector))
    return scoped("faults", inj,
                  busy=RuntimeError("a fault injector is already active"))
