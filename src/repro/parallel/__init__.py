"""Measured parallel execution backend (``repro.parallel``).

The layer that turns the repo's *analytical* scaling story (Fig. 6/7,
Table VI via :mod:`repro.perf.scaling`) into a *measured* one: a worker
pool (:mod:`~repro.parallel.pool`) plus parent-side kernels
(:mod:`~repro.parallel.kernels`) that split the MSM (by window) and the
NTT/witness/batch hot paths across real processes and reassemble
bit-identical results.

Usage::

    from repro import parallel

    with parallel.parallel_pool(workers=4):
        proof = prove(pk, circuit, witness, rng)   # parallel MSM/NTT

or via ``Workflow(..., workers=4)``, ``--workers N`` on the CLI, or
``$REPRO_WORKERS``.  See docs/PARALLELISM.md for the design and the
determinism contract.
"""

from repro.parallel.pool import (
    WorkerPool,
    active_pool,
    chunk_slices,
    decode_error,
    encode_error,
    parallel_pool,
    using,
    workers_from_env,
)

__all__ = [
    "WorkerPool",
    "active_pool",
    "chunk_slices",
    "decode_error",
    "encode_error",
    "parallel_pool",
    "using",
    "workers_from_env",
]
