"""Typed error taxonomy of the resilience layer.

Every failure mode the pipeline is expected to survive — or at least to
report crisply — has one class here, so callers can build policy on
``except`` clauses instead of string-matching tracebacks:

``TransientFault``
    Momentary, environment-shaped failures (a flaky kernel pass, an I/O
    hiccup).  Retryable by definition.
``StageTimeout``
    A stage exceeded its deadline (:class:`repro.resilience.retry.Deadline`).
    Retryable — the next attempt may land on a quieter machine.
``ArtifactCorruption``
    A serialized artifact (proof/vk/pk blob, cache entry, checkpoint cell)
    failed validation — truncated, oversized, checksum mismatch, or a point
    off its curve/subgroup.  Retryable at the *stage* level (recomputing
    regenerates the artifact) but never silently accepted.  Subclasses
    ``ValueError`` so pre-taxonomy callers that caught ``ValueError`` from
    deserialization keep working.
``ResourceExhausted``
    Memory/space pressure.  Never retried: the run ends typed
    (``error[resources]``).
``AdmissionError``
    The serving layer (:mod:`repro.serve`) refused to accept a request —
    queue full, in-flight cap reached, or the service is draining.  Load
    shedding is a *deliberate* answer, not a fault to mask: never
    retryable by the service (the client may re-submit later, which is a
    policy decision above this taxonomy).
``WorkerCrash``
    An *untyped* exception escaped inside a parallel worker process
    (:mod:`repro.parallel`).  Taxonomy errors cross the process boundary
    as themselves; everything else is wrapped here so the parent never
    sees a pickled traceback — only a one-line typed report naming the
    original exception.
``StageOrderError``
    A protocol stage ran before its prerequisite (``proving`` before
    ``witness``).  Programmer error, never retried.  Subclasses ``RuntimeError`` so pre-taxonomy
    callers that caught the old untyped guards keep working.
``PoolStateError``
    The worker-pool lifecycle was violated — a map on a closed pool, or
    activating a second pool under an active one.  Programmer error,
    never retried.  Subclasses ``RuntimeError`` for the same reason.
``StageError``
    The terminal wrapper: a stage failed after every retry/degrade avenue,
    carrying the stage name, attempt count, and the underlying typed fault
    as ``__cause__``/:attr:`fault`.

``classify`` names the taxonomy class of any exception (for metrics and
job results); ``is_retryable`` is the single source of truth for what the
retry loop may re-attempt.
"""

from __future__ import annotations

__all__ = [
    "AdmissionError",
    "ArtifactCorruption",
    "PoolStateError",
    "ReproError",
    "ResourceExhausted",
    "StageError",
    "StageOrderError",
    "StageTimeout",
    "TransientFault",
    "WorkerCrash",
    "classify",
    "is_retryable",
]


class ReproError(Exception):
    """Base of the taxonomy.  ``code`` is the stable machine-readable tag
    used in CLI output (``error[<code>]: ...``) and metrics labels."""

    code = "error"

    def one_line(self):
        """Single-line rendering for CLI error paths (never a traceback)."""
        text = " ".join(str(self).split())
        return f"error[{self.code}]: {text}"


class TransientFault(ReproError):
    code = "transient"


class StageTimeout(ReproError):
    code = "timeout"

    def __init__(self, message, stage=None, deadline_s=None, elapsed_s=None):
        super().__init__(message)
        self.stage = stage
        self.deadline_s = deadline_s
        self.elapsed_s = elapsed_s


class ArtifactCorruption(ReproError, ValueError):
    code = "corrupt"

    def __init__(self, message, artifact=None, expected=None, actual=None):
        if expected is not None or actual is not None:
            message = f"{message} (expected {expected}, actual {actual})"
        super().__init__(message)
        self.artifact = artifact
        self.expected = expected
        self.actual = actual


class ResourceExhausted(ReproError):
    code = "resources"


class AdmissionError(ReproError):
    """The serving layer shed a request instead of queueing it.

    Raised (or reported as ``error[admission]``) when the bounded job
    queue or the in-flight cap of :class:`repro.serve.ProvingService` is
    full, or the service is draining.  Deliberately **not** in
    :data:`RETRYABLE`: shedding exists to protect the slow CPU-bound
    core, and transparently re-queueing would undo it.
    """

    code = "admission"


class StageOrderError(ReproError, RuntimeError):
    """A protocol step ran before its prerequisite artifact existed."""

    code = "order"


class PoolStateError(ReproError, RuntimeError):
    """The worker-pool lifecycle contract was violated."""

    code = "pool"


class WorkerCrash(ReproError):
    """An untyped exception escaped inside a parallel worker process.

    Typed taxonomy errors are re-raised in the parent as their own class;
    anything else becomes a ``WorkerCrash`` naming the original exception
    type so the parent reports one typed line, never a pickled traceback.
    """

    code = "worker"

    def __init__(self, message, task=None, exc_type=None):
        super().__init__(message)
        self.task = task
        self.exc_type = exc_type


class StageError(ReproError):
    """A pipeline stage failed for good.

    Raised by the retry wrapper after the last attempt; :attr:`fault` is
    the underlying taxonomy error (also chained as ``__cause__``) so
    callers and tests can assert on the original failure class.
    """

    code = "stage"

    def __init__(self, stage, fault, attempts=1):
        super().__init__(
            f"stage {stage!r} failed after {attempts} attempt(s): "
            f"[{classify(fault)}] {fault}"
        )
        self.stage = stage
        self.fault = fault
        self.attempts = attempts


#: Fault classes the retry loop may re-attempt.  ``ResourceExhausted`` is
#: deliberately absent: repeating the same allocation pattern fails the
#: same way.
RETRYABLE = (TransientFault, StageTimeout, ArtifactCorruption)


def is_retryable(exc):
    """True iff the retry loop is allowed to re-attempt after *exc*."""
    return isinstance(exc, RETRYABLE)


def classify(exc):
    """Stable taxonomy tag for *exc* (``"untyped"`` for foreign errors)."""
    if isinstance(exc, ReproError):
        return exc.code
    return "untyped"
