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
    Deterministic seeded fault injection behind a ``RUN.faults is None``
    guard (the run context, docs/ARCHITECTURE.md), with sites at every
    stage boundary and in the MSM/NTT/serialize hot paths.
:mod:`repro.resilience.retry`
    Exponential backoff with seeded jitter, cooperative per-stage
    deadlines, and the :class:`~repro.resilience.retry.ResiliencePolicy`
    a ``Workflow`` is given (``policy=``).
:mod:`repro.resilience.checkpoint`
    Checksummed pickle payloads and the self-healing cell store behind
    the harness disk cache and the capacity checkpoints.
:mod:`repro.resilience.degrade`
    Graceful degradation: Pippenger→naive MSM fallback, batch-verify
    bisection to the exact bad proof indices, and the harness memory
    guard that coarsens ``mem_sample`` under pressure.
:mod:`repro.resilience.chaos`
    The seeded chaos driver behind ``python -m repro chaos`` (imported
    explicitly — it pulls in the whole pipeline).

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
from repro.resilience.degrade import (
    batch_verify_bisect,
    resilient_msm,
    run_with_memory_guard,
)
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
from repro.resilience.faults import FaultInjector, FaultSpec, injecting, schedule
from repro.resilience.retry import (
    Deadline,
    ResiliencePolicy,
    RetryPolicy,
    with_retry,
)

__all__ = [
    "ArtifactCorruption",
    "CellStore",
    "Deadline",
    "FaultInjector",
    "FaultSpec",
    "PoolStateError",
    "ReproError",
    "ResiliencePolicy",
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
    "run_with_memory_guard",
    "schedule",
    "with_retry",
    "write_checksummed",
]
