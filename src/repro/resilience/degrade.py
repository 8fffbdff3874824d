"""Graceful-degradation policies: when retrying is the wrong answer.

Three policies, each trading speed or precision for forward progress and
each observable through ``repro_resilience_*`` metrics:

- :func:`resilient_msm` — the prover's MSM entry point: the front door
  :func:`repro.msm.dispatch.msm_auto` first, and on a kernel
  :class:`~repro.resilience.errors.TransientFault` fall back to the naive
  double-and-add kernel (slower, but structurally too simple to share the
  bucket kernel's failure).  The success path adds one ``try`` frame.
- :func:`batch_verify_bisect` — when the folded batch check fails it can
  only say "some proof is bad"; bisection re-checks halves and verifies
  singleton leaves individually, returning the exact offending indices
  (``O(b log k)`` extra pairing work for ``b`` bad proofs among ``k``).
- :func:`run_with_memory_guard` — the harness memory guard: re-runs a
  profiling cell with a coarser ``mem_sample`` each time it raises
  :class:`~repro.resilience.errors.ResourceExhausted`, degrading memory
  *precision* instead of failing the cell.
"""

from __future__ import annotations

from repro.context import RUN
from repro.resilience.errors import ResourceExhausted, TransientFault

__all__ = [
    "batch_verify_bisect",
    "resilient_msm",
    "run_with_memory_guard",
]


def resilient_msm(group, points, scalars):
    """The MSM front door with naive-kernel fallback on a transient fault.

    A fault inside a pool worker surfaces here typed like a serial one,
    so the one fallback covers both execution modes.
    """
    # Lazy kernel imports: the MSM package instruments its hot paths with
    # resilience fault sites, so importing it here at module load would
    # be circular.
    from repro.msm.dispatch import msm_auto
    from repro.msm.naive import msm_naive

    try:
        return msm_auto(group, points, scalars)
    except TransientFault:
        m = RUN.metrics
        if m is not None:
            m.inc("repro_resilience_msm_fallbacks_total")
        return msm_naive(group, points, scalars)


def batch_verify_bisect(vk, proofs_with_publics, rng):
    """Batch-verify and, on failure, identify the bad proofs.

    Returns ``(ok, bad_indices)``: ``(True, [])`` when the whole batch
    verifies, else ``False`` with the sorted indices (into the input
    order) of every proof that fails individual verification.
    """
    from repro.groth16.batch import batch_verify
    from repro.groth16.verifier import verify

    batch = list(proofs_with_publics)
    m = RUN.metrics
    if len(batch) == 1:
        # A paced service's median batch: the fold would cost four scalar
        # multiplications and a fourth pairing leg more than ``verify``.
        if verify(vk, *batch[0]):
            return True, []
        if m is not None:
            m.inc("repro_resilience_batch_bad_proofs_total")
        return False, [0]
    if batch_verify(vk, batch, rng):
        return True, []
    if m is not None:
        m.inc("repro_resilience_batch_bisections_total")

    bad = []

    def _bisect(lo, hi):
        # [lo, hi): known (or suspected) to contain at least one bad proof.
        if hi - lo == 1:
            proof, publics = batch[lo]
            if not verify(vk, proof, publics):
                bad.append(lo)
            return
        mid = (lo + hi) // 2
        if not batch_verify(vk, batch[lo:mid], rng):
            _bisect(lo, mid)
        if not batch_verify(vk, batch[mid:hi], rng):
            _bisect(mid, hi)

    _bisect(0, len(batch))
    if m is not None:
        m.inc("repro_resilience_batch_bad_proofs_total", len(bad))
    return False, sorted(bad)


def run_with_memory_guard(run_cell, mem_sample, max_downshifts=3, factor=8):
    """Run ``run_cell(mem_sample)``, downshifting the sampling rate by
    *factor* on each :class:`ResourceExhausted` (at most *max_downshifts*
    times; the last failure propagates).  Returns
    ``(result, effective_mem_sample)``."""
    m = RUN.metrics
    for shift in range(max_downshifts + 1):
        try:
            return run_cell(mem_sample), mem_sample
        except ResourceExhausted:
            if shift == max_downshifts:
                raise
            mem_sample = max(1, mem_sample) * factor
            if m is not None:
                m.inc("repro_resilience_mem_downshifts_total")
