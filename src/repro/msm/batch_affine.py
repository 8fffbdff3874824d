"""Batch-affine point addition: the wave primitive and the bucket kernel on it.

The reference kernel accumulates buckets in Jacobian coordinates: each
mixed addition costs ~11 field multiplications but needs no inversion.
Real provers instead keep points *affine* and amortize the one inversion
an affine addition needs across a whole wave of independent additions with
Montgomery's simultaneous-inversion trick (3 multiplications per element
plus a single inversion — the same trick as
:meth:`repro.fields.prime_field.PrimeField.batch_inv`).  An affine addition
then costs ~6 multiplications: ``lambda = (y2-y1)/(x2-x1)``,
``x3 = lambda^2 - x1 - x2``, ``y3 = lambda*(x1-x3) - y1``.

:func:`batch_affine_add` is one such wave; the MSM's buckets and the
fixed-base walk (:mod:`repro.msm.fixed_base`) are both built from it.  The
doubling (``P + P``, denominator ``2y``) and cancellation (``P + (-P)``,
result infinity) cases are classified *before* the batch so the inversion
input is never zero.  Bucket waves are built by pairing: every bucket
pairs up its pending points, the pairs across the buckets share a wave
until it holds ``_WAVE_PAIRS`` of them, and the halved pending lists go
around again — ``O(log(max occupancy))`` rounds.

The wave's field work is the coordinate adapter's fused ``add_wave``
(:class:`~repro.curves.curve.FpOps` / ``Fp2Ops``): one method per
coordinate field, inline arithmetic instead of a Python call per field
operation, so the kernel serves G1 and G2 alike; ``Fp2`` inverts through
norms.  No wave runs with a tracer attached (the bucket kernel and the
fixed-base walk are charged); one traced anyway reports the bigint
primitives of the per-operation wave it stands for.
"""

from __future__ import annotations

from repro.context import RUN

__all__ = ["batch_affine_accumulate", "batch_affine_add"]

#: Pairs after which an accumulation wave takes no further bucket.  A
#: wave's numerators, denominators, prefix products and sums are the bucket
#: kernel's peak memory (a full first round of 4 096 G2 terms held ~2 MiB
#: of them); a longer wave only saves inversions, one a wave.
_WAVE_PAIRS = 256


def batch_affine_add(ops, ps, qs):
    """One wave: the list of ``ps[i] + qs[i]`` behind one shared inversion.

    Operands and results are affine ``(x, y)`` tuples in the adapter's raw
    representation, ``None`` for infinity; the adapter's fused
    ``add_wave`` does the field work.
    """
    # Cooperative deadline poll once per wave — the unit of work of the
    # bucket rounds and of the fixed-base walk alike.
    if RUN.deadline is not None:
        RUN.deadline.check()
    out, inverted = ops.add_wave(ps, qs)
    if not inverted:
        return out
    m = RUN.metrics
    if m is not None:
        m.inc("repro_msm_batch_affine_inversions_total")
        m.observe("repro_msm_batch_affine_wave", inverted)
    return out


def batch_affine_accumulate(group, n_buckets, entries):
    """Sum *entries* into affine buckets with batched-inversion additions.

    Parameters
    ----------
    group:
        The curve group (supplies the coordinate adapter).
    n_buckets:
        Number of bucket slots; entry indices are 1-based like the digit
        values that produce them (bucket ``d`` lands at index ``d - 1``).
    entries:
        Iterable of ``(bucket, (x, y))`` with 1-based bucket index and an
        affine point in the adapter's raw representation.

    Returns a list of ``n_buckets`` affine ``(x, y)`` tuples (``None`` for
    an empty/cancelled bucket).
    """
    pending = [[] for _ in range(n_buckets)]
    for bucket, pt in entries:
        pending[bucket - 1].append(pt)

    while True:
        # One pairing wave: each bucket contributes len(items)//2
        # independent additions until the wave is full (the wave polls the
        # cooperative deadline); the next wave starts from the first
        # bucket again.
        owners, ps, qs = [], [], []
        for b, items in enumerate(pending):
            k = len(items)
            if k < 2:
                continue
            even = k - (k & 1)
            owners += [b] * (even // 2)
            ps += items[0:even:2]
            qs += items[1:even:2]
            pending[b] = items[even:]
            if len(owners) >= _WAVE_PAIRS:
                break
        if not owners:
            break
        for b, total in zip(owners, batch_affine_add(group.ops, ps, qs)):
            if total is not None:
                pending[b].append(total)

    return [items[0] if items else None for items in pending]
