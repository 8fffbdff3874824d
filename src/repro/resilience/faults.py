"""Deterministic, seeded fault injection.

The chaos machinery of the resilience layer: a :class:`FaultInjector`
installed as ``RUN.faults`` (the run context, docs/ARCHITECTURE.md) arms a
*plan* of :class:`FaultSpec` entries, and instrumented **sites** — every
stage boundary plus the MSM/NTT/serialize hot paths — ask it whether to
fail:

    if RUN.faults is not None:
        RUN.faults.check("msm:pippenger")

A disabled site costs one attribute load and an ``is None`` test,
so production runs pay nothing.  Each spec names a site, a fault kind from
the :mod:`repro.resilience.errors` taxonomy, and the 1-based invocation of
that site at which it fires; it fires **once** and is then consumed, which
is what makes retry-based recovery observable.  Plans are either authored
explicitly or derived from a seed with :func:`schedule`, so a chaos run is
reproducible end to end (``python -m repro chaos --seed 0 --faults 4``).
"""

from __future__ import annotations

import random

from repro.context import RUN, scoped
from repro.resilience.errors import (
    ArtifactCorruption,
    ResourceExhausted,
    StageTimeout,
    TransientFault,
)

__all__ = [
    "ALL_SITES",
    "FaultInjector",
    "FaultSpec",
    "KINDS",
    "PIPELINE_SITES",
    "ROUNDTRIP_SITES",
    "fire",
    "injecting",
    "make_fault",
    "render_plan",
    "schedule",
]

#: Fault kind -> taxonomy class raised at the site.
KINDS = {
    "transient": TransientFault,
    "timeout": StageTimeout,
    "corrupt": ArtifactCorruption,
    "oom": ResourceExhausted,
}

#: Sites exercised by one five-stage pipeline run (what :func:`schedule`
#: draws from by default; its hit numbers are all reached by a run that
#: does not fail first).  ``run_chaos`` adds :data:`ROUNDTRIP_SITES`.
PIPELINE_SITES = (
    "stage:compile",
    "stage:setup",
    "stage:witness",
    "stage:proving",
    "stage:verifying",
    "msm:pippenger",
    "ntt:transform",
)

#: The proof/vk serialization sites: each round-trip (``*_to_bytes`` then
#: ``*_from_bytes``) checks its site twice.
ROUNDTRIP_SITES = ("serialize:proof", "serialize:vk")

#: Every instrumented site of the pipeline and its artifacts, including
#: ``serialize:pk``, which only an explicit proving-key round-trip reaches.
ALL_SITES = PIPELINE_SITES + ROUNDTRIP_SITES + ("serialize:pk",)

#: Highest trigger hit :func:`schedule` draws for a non-stage site.
MAX_HIT = 2


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

    def to_dict(self):
        return {"site": self.site, "kind": self.kind, "hit": self.hit,
                "fired": self.fired}

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


def schedule(seed, n_faults, sites=PIPELINE_SITES):
    """Derive a deterministic *n_faults*-entry plan from *seed*.

    Sites and kinds are drawn uniformly and the trigger hit from
    ``1..MAX_HIT``, with no ``(site, hit)`` pair drawn twice — two specs
    on one pair would fire only once between them — so repeated chaos
    runs with one seed replay the exact same failure story.
    """
    # Stage boundaries are checked once per attempt; deeper hits would
    # never trigger without a preceding retry, so pin them to hit 1.
    pairs = sum(1 if site.startswith("stage:") else MAX_HIT
                for site in set(sites))
    if n_faults > pairs:
        raise ValueError(f"{n_faults} faults need {n_faults} distinct "
                         f"(site, hit) pairs; the sites offer {pairs}")
    rng = random.Random(f"chaos:{seed}")
    kinds = sorted(KINDS)
    plan, taken = [], set()
    while len(plan) < n_faults:
        site = rng.choice(list(sites))
        hit = 1 if site.startswith("stage:") else rng.randrange(1, MAX_HIT + 1)
        if (site, hit) in taken:
            continue
        taken.add((site, hit))
        plan.append(FaultSpec(site, rng.choice(kinds), hit=hit))
    return plan


def render_plan(plan):
    """Text lines of *plan*: a count line, then one line per spec with its
    fired flag (the ``chaos`` and ``loadtest --faults`` reports)."""
    fired = sum(1 for spec in plan if spec.fired)
    lines = [f"plan: {len(plan)} fault(s), {fired} fired"]
    for spec in plan:
        state = "fired  " if spec.fired else "pending"
        lines.append(f"  [{state}] {spec.kind:9s} at {spec.site} "
                     f"(hit {spec.hit})")
    return lines


def injecting(plan_or_injector):
    """Install a :class:`FaultInjector` (or wrap a plan) as ``RUN.faults``."""
    inj = (plan_or_injector if isinstance(plan_or_injector, FaultInjector)
           else FaultInjector(plan_or_injector))
    return scoped("faults", inj,
                  busy=RuntimeError("a fault injector is already active"))
