"""Fault-tolerant asyncio proving service (``repro.serve``).

The serving layer in front of the measured pipeline: bounded admission
(:class:`~repro.serve.service.ProvingService`), per-request cooperative
deadlines, retry + circuit breaking over the worker pool, coalesced
batch verification with poisoned-member isolation, and graceful drain.
:mod:`~repro.serve.loadgen` drives it open-loop for the ``loadtest``
CLI verb (SIGTERM drains).  See docs/SERVING.md.
"""

from repro.serve.breaker import CircuitBreaker
from repro.serve.jobs import KINDS, PHASES, STATUSES, Job, JobResult
from repro.serve.loadgen import LoadReport, parse_mix, run_loadtest
from repro.serve.pkcache import PKCache
from repro.serve.service import ARTIFACT_CACHE, SERVE_SITES, ProvingService

__all__ = [
    "ARTIFACT_CACHE",
    "CircuitBreaker",
    "Job",
    "JobResult",
    "KINDS",
    "LoadReport",
    "PHASES",
    "PKCache",
    "ProvingService",
    "SERVE_SITES",
    "STATUSES",
    "parse_mix",
    "run_loadtest",
]
