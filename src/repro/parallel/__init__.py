"""Measured parallel execution backend (``repro.parallel``).

The layer that turns the repo's *analytical* scaling story (Fig. 6/7,
Table VI via :mod:`repro.perf.scaling`) into a *measured* one: a worker
process pool (:mod:`~repro.parallel.pool`) plus parent-side kernels
(:mod:`~repro.parallel.kernels`) that split the MSM (by window), the NTT,
the setup's fixed-base sweeps and batch verification across real
processes and reassemble bit-identical results.

Usage::

    from repro import parallel

    with parallel.WorkerPool(4) as pool, parallel.using(pool):
        proof = prove(pk, circuit, witness, rng)   # parallel MSM/NTT

or via ``Workflow(..., workers=4)`` or ``--workers N`` on the CLI.  See
docs/PARALLELISM.md for the design and the determinism contract.
"""

from repro.parallel.pool import (
    WorkerPool,
    active_pool,
    chunk_slices,
    decode_error,
    encode_error,
    using,
)

__all__ = [
    "WorkerPool",
    "active_pool",
    "chunk_slices",
    "decode_error",
    "encode_error",
    "using",
]
