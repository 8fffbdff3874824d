"""The five-stage zk-SNARK workflow of the paper's Fig. 1.

``Workflow`` wires the stages together — *compile*, *setup*, *witness*,
*proving*, *verifying* — and is the unit every experiment in the harness
drives: each stage can be executed separately (as the paper profiles them)
with its own tracer, and the artifacts flow between stages exactly as in
Fig. 1 (ccs; pk/vk; witnessFull/witnessPublic; proof; true/false).

``STAGES`` fixes the canonical stage names and order used across the
analyses, tables and figures.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Any, Optional

from repro.circuit.compiler import compile_circuit
from repro.context import RUN
from repro.groth16 import generate_witness, prove, public_inputs, setup, verify
from repro import parallel
from repro.obs import spans
from repro.obs.spans import Span
from repro.perf import trace
from repro.perf.trace import Tracer
from repro.resilience.errors import StageOrderError

__all__ = ["STAGES", "StageResult", "Workflow"]

#: Canonical stage order (Fig. 1).
STAGES = ("compile", "setup", "witness", "proving", "verifying")


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
        ``None`` reads ``$REPRO_WORKERS``.  Anything above 1 creates a
        lazy :class:`~repro.parallel.pool.WorkerPool` that every stage
        runs under — release it with :meth:`close` (or use the workflow
        as a context manager).  Results are bit-identical either way.
    policy:
        A :class:`~repro.resilience.retry.ResiliencePolicy` every stage
        then runs under (retry, per-stage deadlines, a terminal
        ``StageError``); ``None`` runs each stage body once, bare.

    Stages communicate through attributes (``circuit``, ``pk``, ``vk``,
    ``witness``, ``proof``, ``accepted``); :meth:`run_stage` executes one
    stage — under a tracer if given — and :meth:`run_all` executes the
    whole protocol in order.
    """

    def __init__(self, curve, builder, inputs, seed=0, workers=None,
                 policy=None):
        self.curve = curve
        self.builder = builder
        self.inputs = dict(inputs)
        self.seed = seed
        self.policy = policy
        self.workers = workers if workers is not None else parallel.workers_from_env()
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

    def _stage_compile(self):
        self.circuit = compile_circuit(self.builder)
        return self.circuit

    def _stage_setup(self):
        self._require("compile", self.circuit)
        rng = random.Random(f"setup:{self.seed}")
        self.pk, self.vk = setup(self.curve, self.circuit, rng)
        return (self.pk, self.vk)

    def _stage_witness(self):
        self._require("compile", self.circuit)
        self.witness = generate_witness(self.circuit, self.inputs)
        return self.witness

    def _stage_proving(self):
        self._require("setup", self.pk)
        self._require("witness", self.witness)
        rng = random.Random(f"prove:{self.seed}")
        self.proof = prove(self.pk, self.circuit, self.witness, rng)
        return self.proof

    def _stage_verifying(self):
        self._require("proving", self.proof)
        self.accepted = verify(self.vk, self.proof, public_inputs(self.circuit, self.witness))
        return self.accepted

    def _require(self, stage, artifact):
        if artifact is None:
            raise StageOrderError(f"stage {stage!r} must run first")

    # -- drivers -------------------------------------------------------------------

    def _execute(self, impl, tracer):
        if tracer is None:
            return impl()
        with trace.tracing(tracer):
            return impl()

    def run_stage(self, stage, tracer=None):
        """Execute one stage, optionally under *tracer*; returns a
        :class:`StageResult` (also recorded in :attr:`results`).

        When a span recorder is active (:func:`repro.obs.spans.recording`)
        the stage runs under a span named after it, with the tracer's
        primitive counts attached; otherwise only the plain wall-clock
        ``elapsed`` is taken, as before.

        When the workflow was given a *policy* the stage body runs under
        it — fault-site check, per-stage deadline, retry with backoff —
        and a terminal failure raises
        :class:`~repro.resilience.errors.StageError` carrying the typed
        fault.  Without a policy injected faults, if any, propagate raw;
        ``elapsed`` always spans every attempt.
        """
        try:
            impl = getattr(self, f"_stage_{stage}")
        except AttributeError:
            raise ValueError(f"unknown stage {stage!r}; expected one of {STAGES}") from None
        start = time.perf_counter()
        recorded_spans = []

        def body():
            if RUN.spans is None:
                return self._execute(impl, tracer)
            with spans.span(stage, curve=self.curve.name,
                            circuit=self.builder.name) as sp:
                recorded_spans.append(sp)
                artifact = self._execute(impl, tracer)
                if tracer is not None:
                    spans.attach_counters(tracer.total_counts())
            return artifact

        tel = RUN.tasks
        if tel is not None:
            tel.begin_stage(stage)
        with parallel.using(self.pool):
            if self.policy is None:
                if RUN.faults is not None:
                    RUN.faults.check(f"stage:{stage}")
                artifact = body()
            else:
                artifact = self.policy.execute_stage(stage, body)
        sp = recorded_spans[-1] if recorded_spans else None
        elapsed = time.perf_counter() - start
        result = StageResult(stage=stage, artifact=artifact, elapsed=elapsed,
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
