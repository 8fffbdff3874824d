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
pairs up its pending points, all pairs across all buckets share one wave,
and the halved pending lists go around again — ``O(log(max occupancy))``
rounds.

Everything runs through the group's coordinate adapter
(:class:`~repro.curves.curve.FpOps` / ``Fp2Ops``), so the kernel serves G1
and G2 alike and traced runs keep attributing the field work to the bigint
primitives.
"""

from __future__ import annotations

from repro.context import RUN

__all__ = ["batch_affine_accumulate", "batch_affine_add", "batch_inv"]


def batch_inv(ops, xs):
    """Montgomery simultaneous inversion through a coordinate adapter.

    ``3(n-1)`` multiplications plus one inversion; *xs* must be non-zero
    (the caller's pair classification guarantees it).
    """
    n = len(xs)
    prefix = [ops.one] * n
    acc = ops.one
    for i in range(n):
        prefix[i] = acc
        acc = ops.mul(acc, xs[i])
    inv_acc = ops.inv(acc)
    out = [ops.one] * n
    for i in range(n - 1, -1, -1):
        out[i] = ops.mul(inv_acc, prefix[i])
        inv_acc = ops.mul(inv_acc, xs[i])
    return out


def batch_affine_add(ops, ps, qs):
    """One wave: the list of ``ps[i] + qs[i]`` behind one shared inversion.

    Operands and results are affine ``(x, y)`` tuples in the adapter's raw
    representation, ``None`` for infinity.
    """
    # Cooperative deadline poll once per wave — the unit of work of the
    # bucket rounds and of the fixed-base walk alike.
    if RUN.deadline is not None:
        RUN.deadline.check()
    add, sub, mul, sqr = ops.add, ops.sub, ops.mul, ops.sqr
    out = [None] * len(ps)
    slots, nums, denoms = [], [], []  # sums that need a slope num / denom
    for i, (p, q) in enumerate(zip(ps, qs)):
        if p is None or q is None:
            out[i] = q if p is None else p
        elif p[0] != q[0]:
            slots.append(i)
            nums.append(sub(q[1], p[1]))
            denoms.append(sub(q[0], p[0]))
        elif p[1] == q[1] and not ops.is_zero(p[1]):
            xx = sqr(p[0])  # doubling: lambda = 3*x^2 / (2*y)  (a = 0 curves)
            slots.append(i)
            nums.append(add(add(xx, xx), xx))
            denoms.append(add(p[1], p[1]))
        # else P + (-P) or 2 * (x, 0): infinity
    if not denoms:
        return out
    m = RUN.metrics
    if m is not None:
        m.inc("repro_msm_batch_affine_inversions_total")
        m.observe("repro_msm_batch_affine_wave", len(denoms))
    for i, num, inv in zip(slots, nums, batch_inv(ops, denoms)):
        x1, y1 = ps[i]
        lam = mul(num, inv)
        x3 = sub(sub(sqr(lam), x1), qs[i][0])
        out[i] = (x3, sub(mul(lam, sub(x1, x3)), y1))
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
        # One pairing round: each bucket contributes len(items)//2
        # independent additions, all of them in one wave (which polls the
        # cooperative deadline).
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
        if not owners:
            break
        for b, total in zip(owners, batch_affine_add(group.ops, ps, qs)):
            if total is not None:
                pending[b].append(total)

    return [items[0] if items else None for items in pending]
