"""The five-stage zk-SNARK workflow of the paper's Fig. 1.

``Workflow`` wires the stages together — *compile*, *setup*, *witness*,
*proving*, *verifying* — and is the unit every experiment in the harness
drives: each stage can be executed separately (as the paper profiles them)
with its own tracer, and the artifacts flow between stages exactly as in
Fig. 1 (ccs; pk/vk; witnessFull/witnessPublic; proof; true/false).

``STAGES`` fixes the canonical stage names and order used across the
analyses, tables and figures.

:func:`run_body` is the only code that runs a stage body: ``Workflow``
calls it once per stage attempt, and the proving service
(:mod:`repro.serve.service`) once per request attempt and, through a
``Workflow``, for its cold start, so a served prove carries the same
stage tag, span and counters as a pipeline one.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Any, Optional

from repro import groth16, parallel
from repro.circuit import compiler
from repro.context import RUN
from repro.obs import spans
from repro.obs.spans import Span
from repro.perf import trace
from repro.perf.trace import Tracer
from repro.resilience.errors import StageError, StageOrderError
from repro.resilience.retry import deadline_scope, with_retry

__all__ = ["NEEDS", "STAGES", "StageResult", "Workflow", "run_body"]

#: Canonical stage order (Fig. 1).
STAGES = ("compile", "setup", "witness", "proving", "verifying")

#: The artifacts each stage reads: ``(stage that makes it, attribute)``.
NEEDS = {
    "compile": (),
    "setup": (("compile", "circuit"),),
    "witness": (("compile", "circuit"),),
    "proving": (("setup", "pk"), ("witness", "witness")),
    "verifying": (("proving", "proof"),),
}


@dataclass
class StageResult:
    """Outcome of one stage run: its artifact, wall time, and telemetry."""

    stage: str
    artifact: Any
    elapsed: float
    tracer: Optional[Tracer] = None
    span: Optional[Span] = None

    def to_record(self):
        """The stage's ledger-record form — the one serialization shared by
        the workflow, the harness and the obs layer.

        When a span was recorded, its CPU time, peak-RSS delta and GC
        count are also lifted to the top level so ledger readers can
        index them without digging through span trees.
        """
        rec = {
            "stage": self.stage,
            "elapsed_s": round(self.elapsed, 6),
            "span": self.span.to_dict() if self.span is not None else None,
        }
        if self.span is not None:
            rec["cpu_s"] = round(self.span.cpu_s, 6)
            rec["rss_peak_delta_kb"] = self.span.rss_peak_delta_kb
            rec["gc_collections"] = self.span.gc_collections
        return rec


def _poll_deadline():
    dl = RUN.deadline
    if dl is not None:
        dl.check()


def run_body(stage, body, site, pool=None, budget=None, tracer=None, **meta):
    """Run one stage *body* once; returns ``(artifact, span)``.

    In order: tag ``RUN.tasks`` with *stage*; install *pool*; open a
    deadline scope of *budget* seconds (``None`` keeps the enclosing
    deadline) and poll ``RUN.deadline``; check the *site* fault; run
    *body* under *tracer* and, when a span recorder is active, under a
    span named *stage* carrying *meta* and the tracer's counts; poll the
    deadline again, so a stage with no poll points of its own still ends
    at its boundary.  The span is ``None`` when nothing is recording.
    """
    tel = RUN.tasks
    if tel is not None:
        tel.begin_stage(stage)
    with parallel.using(pool), deadline_scope(budget, stage=site):
        _poll_deadline()
        if RUN.faults is not None:
            RUN.faults.check(site)
        with spans.span(stage, **meta) as sp:
            if tracer is None:
                artifact = body()
            else:
                with trace.tracing(tracer):
                    artifact = body()
                if sp is not None:
                    spans.attach_counters(tracer.total_counts())
        _poll_deadline()
    return artifact, sp


class Workflow:
    """Drives one circuit through the five-stage zk-SNARK protocol.

    Parameters
    ----------
    curve:
        A :class:`~repro.curves.curve.CurveSpec`.
    builder:
        The authored :class:`~repro.circuit.dsl.CircuitBuilder` (the
        "circuit" input of Fig. 1).
    inputs:
        ``{name: int}`` assignments for every circuit input.
    seed:
        Seed for the setup/proving randomness, so runs are reproducible.
    workers:
        Worker count for the parallel backend (``repro.parallel``);
        ``None`` runs serially.  Anything above 1 creates a
        lazy :class:`~repro.parallel.pool.WorkerPool` that every stage
        runs under — release it with :meth:`close` (or use the workflow
        as a context manager).  Results are bit-identical either way.
    retry:
        A :class:`~repro.resilience.retry.RetryPolicy` every stage then
        runs under (:func:`~repro.resilience.retry.with_retry`, a terminal
        ``StageError``); ``None`` runs each stage body once, bare.

    Stages communicate through attributes (``circuit``, ``pk``, ``vk``,
    ``witness``, ``proof``, ``accepted``); :meth:`run_stage` executes one
    stage — under a tracer if given — and :meth:`run_all` executes the
    whole protocol in order.
    """

    def __init__(self, curve, builder, inputs, seed=0, workers=None,
                 retry=None):
        self.curve = curve
        self.builder = builder
        self.inputs = dict(inputs)
        self.seed = seed
        self.retry = retry
        self.workers = workers
        self.circuit = None
        self.pk = None
        self.vk = None
        self.witness = None
        self.proof = None
        self.accepted = None
        self.results = {}
        self._pool = None

    # -- parallel execution --------------------------------------------------------

    @property
    def pool(self):
        """The lazily created :class:`~repro.parallel.pool.WorkerPool`
        (``None`` when this workflow runs serially)."""
        if self.workers is None or self.workers <= 1:
            return None
        if self._pool is None:
            self._pool = parallel.WorkerPool(self.workers)
        return self._pool

    def close(self):
        """Release the worker pool, if one was created (idempotent)."""
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    # -- stage implementations ---------------------------------------------------
    #
    # The protocol calls go through their modules at call time, so a
    # rebinding of ``repro.groth16.setup`` (bench's traced pass, a test's
    # counting wrapper) is what runs.

    def _stage_compile(self):
        self.circuit = compiler.compile_circuit(self.builder)
        return self.circuit

    def _stage_setup(self):
        rng = random.Random(f"setup:{self.seed}")
        self.pk, self.vk = groth16.setup(self.curve, self.circuit, rng)
        return (self.pk, self.vk)

    def _stage_witness(self):
        self.witness = groth16.generate_witness(self.circuit, self.inputs)
        return self.witness

    def _stage_proving(self):
        rng = random.Random(f"prove:{self.seed}")
        self.proof = groth16.prove(self.pk, self.circuit, self.witness, rng)
        return self.proof

    def _stage_verifying(self):
        self.accepted = groth16.verify(
            self.vk, self.proof, groth16.public_inputs(self.circuit, self.witness))
        return self.accepted

    # -- drivers -------------------------------------------------------------------

    def run_stage(self, stage, tracer=None):
        """Execute one stage through :func:`run_body` (fault site
        ``stage:<name>``, the workflow's pool, optionally *tracer*);
        returns a :class:`StageResult` (also recorded in :attr:`results`).
        A stage whose input artifacts (:data:`NEEDS`) are missing raises
        :class:`~repro.resilience.errors.StageOrderError` before any
        attempt, with or without a policy.

        When the workflow was given a *retry* policy the attempts run
        through :func:`~repro.resilience.retry.with_retry`, and a give-up
        raises :class:`~repro.resilience.errors.StageError` carrying the
        typed fault and the attempt count.  Without one the body runs
        once and a fault propagates raw; ``elapsed`` always spans every
        attempt.
        """
        try:
            impl = getattr(self, f"_stage_{stage}")
        except AttributeError:
            raise ValueError(f"unknown stage {stage!r}; expected one of {STAGES}") from None
        for needed, name in NEEDS[stage]:
            if getattr(self, name) is None:
                raise StageOrderError(f"stage {needed!r} must run first")
        start = time.perf_counter()
        attempts = 0

        def attempt():
            nonlocal attempts
            attempts += 1
            m = RUN.metrics
            if m is not None:
                if attempts > 1:
                    m.inc(f"repro_resilience_stage_{stage}_retries_total")
            return run_body(stage, impl, f"stage:{stage}", pool=self.pool,
                            tracer=tracer, curve=self.curve.name,
                            circuit=self.builder.name)

        if self.retry is None:
            artifact, sp = attempt()
        else:
            try:
                artifact, sp = with_retry(attempt, self.retry)
            except Exception as exc:
                raise StageError(stage, exc, attempts=attempts) from exc
        result = StageResult(stage=stage, artifact=artifact,
                             elapsed=time.perf_counter() - start,
                             tracer=tracer, span=sp)
        self.results[stage] = result
        return result

    def run_all(self, tracers=None):
        """Run every stage in order.  *tracers* may map stage name ->
        :class:`~repro.perf.trace.Tracer`.  Returns :attr:`results`."""
        tracers = tracers or {}
        for stage in STAGES:
            self.run_stage(stage, tracers.get(stage))
        return self.results
