"""Resilience layer: survive faults instead of losing the run.

The paper profiles the five-stage pipeline as a long-running batch
workload, and the north star is a proving/verification *service*; both
die ugly if one exception anywhere loses hours of sweep work.  This
package makes failure a modeled, observable event:

:mod:`repro.resilience.errors`
    The typed taxonomy — ``TransientFault``, ``StageTimeout``,
    ``ArtifactCorruption``, ``ResourceExhausted``, terminal
    ``StageError`` — and the ``is_retryable`` policy line.
:mod:`repro.resilience.faults`
    Deterministic fault injection behind a ``RUN.faults is None`` guard
    (the run context, docs/ARCHITECTURE.md), with sites at every stage
    boundary and in the MSM/NTT/serialize hot paths.
:mod:`repro.resilience.retry`
    Exponential backoff with seeded jitter, the one retry loop
    ``with_retry`` (a ``Workflow`` given ``retry=`` runs each stage
    through it), and cooperative deadlines.
:mod:`repro.resilience.checkpoint`
    Checksummed pickle payloads and the self-healing cell store behind
    the harness disk cache.
:mod:`repro.resilience.degrade`
    Graceful degradation: front-door→naive MSM fallback and batch-verify
    bisection to the exact bad proof indices.
Two hypothesis state machines under ``tests/`` are the fault harness:
one drives ``Workflow.run_stage`` with a retry policy and the artifact
round trips, the other the proving service; both arm faults at these
sites and check that every one ends recovered or typed.

Every recovery action increments a ``repro_resilience_*`` counter in the
:mod:`repro.obs.metrics` registry, so retries, fallbacks, evictions and
give-ups land in the run ledger next to the kernel counters.  See
``docs/ROBUSTNESS.md``.
"""

from repro.resilience.checkpoint import (
    CellStore,
    read_checksummed,
    write_checksummed,
)
from repro.resilience.degrade import batch_verify_bisect, resilient_msm
from repro.resilience.errors import (
    ArtifactCorruption,
    PoolStateError,
    ReproError,
    ResourceExhausted,
    StageError,
    StageOrderError,
    StageTimeout,
    TransientFault,
    classify,
    is_retryable,
)
from repro.resilience.faults import FaultInjector, FaultSpec, injecting
from repro.resilience.retry import Deadline, RetryPolicy, with_retry

__all__ = [
    "ArtifactCorruption",
    "CellStore",
    "Deadline",
    "FaultInjector",
    "FaultSpec",
    "PoolStateError",
    "ReproError",
    "ResourceExhausted",
    "RetryPolicy",
    "StageError",
    "StageOrderError",
    "StageTimeout",
    "TransientFault",
    "batch_verify_bisect",
    "classify",
    "injecting",
    "is_retryable",
    "read_checksummed",
    "resilient_msm",
    "with_retry",
    "write_checksummed",
]
