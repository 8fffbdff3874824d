"""Batch-affine bucket accumulation for the signed-digit MSM kernel.

The reference kernel accumulates buckets in Jacobian coordinates: each
mixed addition costs ~11 field multiplications but needs no inversion.
Real provers instead keep buckets *affine* and amortize the one inversion
an affine addition needs across a whole wave of independent additions with
Montgomery's simultaneous-inversion trick (3 multiplications per element
plus a single inversion — the same trick as
:meth:`repro.fields.prime_field.PrimeField.batch_inv`).  An affine addition
then costs ~6 multiplications: ``lambda = (y2-y1)/(x2-x1)``,
``x3 = lambda^2 - x1 - x2``, ``y3 = lambda*(x1-x3) - y1``.

Waves are built by pairing: every bucket pairs up its pending points, all
pairs across all buckets share one batched inversion, and the halved
pending lists go around again — ``O(log(max occupancy))`` rounds.  The
doubling (``P + P``, denominator ``2y``) and cancellation (``P + (-P)``,
result infinity) cases are classified *before* the batch so the inversion
input is never zero.

Everything runs through the group's coordinate adapter
(:class:`~repro.curves.curve.FpOps` / ``Fp2Ops``), so the kernel serves G1
and G2 alike and traced runs keep attributing the field work to the bigint
primitives.
"""

from __future__ import annotations

from repro.obs import metrics
from repro.resilience import retry as resilience

__all__ = ["batch_affine_accumulate", "batch_inv"]


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
    ops = group.ops
    pending = [[] for _ in range(n_buckets)]
    for bucket, pt in entries:
        pending[bucket - 1].append(pt)

    m = metrics.CURRENT
    while True:
        # Cooperative deadline poll once per pairing round — each round is
        # a full pass over every occupied bucket.
        if resilience.DEADLINE is not None:
            resilience.DEADLINE.check()
        # One pairing round: each bucket contributes len(items)//2
        # independent additions; all their denominators share one
        # inversion batch.
        pairs = []  # (bucket index, P, Q)
        for b in range(n_buckets):
            items = pending[b]
            k = len(items)
            if k < 2:
                continue
            nxt = []
            for i in range(0, k - 1, 2):
                pairs.append((b, items[i], items[i + 1]))
            if k & 1:
                nxt.append(items[-1])
            pending[b] = nxt
        if not pairs:
            break

        denoms = []
        kinds = []  # aligned with pairs: "add" | "dbl" | None (infinity)
        for _b, (x1, y1), (x2, y2) in pairs:
            if x1 != x2:
                kinds.append("add")
                denoms.append(ops.sub(x2, x1))
            elif y1 == y2:
                if ops.is_zero(y1):
                    kinds.append(None)  # 2 * (x, 0) = infinity
                else:
                    kinds.append("dbl")
                    denoms.append(ops.add(y1, y1))
            else:
                kinds.append(None)  # P + (-P) = infinity
        if denoms:
            if m is not None:
                m.inc("repro_msm_batch_affine_inversions_total")
                m.observe("repro_msm_batch_affine_wave", len(denoms))
            invs = batch_inv(ops, denoms)
        else:
            invs = []

        j = 0
        for (b, (x1, y1), (x2, y2)), kind in zip(pairs, kinds):
            if kind is None:
                continue
            inv = invs[j]
            j += 1
            if kind == "add":
                lam = ops.mul(ops.sub(y2, y1), inv)
            else:  # doubling: lambda = 3*x^2 / (2*y)  (a = 0 curves)
                xx = ops.sqr(x1)
                lam = ops.mul(ops.add(ops.add(xx, xx), xx), inv)
            x3 = ops.sub(ops.sub(ops.sqr(lam), x1), x2)
            y3 = ops.sub(ops.mul(lam, ops.sub(x1, x3)), y1)
            pending[b].append((x3, y3))

    return [items[0] if items else None for items in pending]
