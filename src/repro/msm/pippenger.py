"""Pippenger (bucket-method) multi-scalar multiplication.

The proving-stage MSM kernel.  Scalars are cut into ``c``-bit windows; each
window pass scatters points into ``2^c - 1`` buckets (mixed additions), folds
the buckets with a running sum, and the window results are combined with
``c`` doublings each.

Instrumentation notes (what the paper's analyses see):

- every window pass is a *parallel* region — windows are independent, which
  is the core of the proving stage's 70%+ parallel fraction (Table VI);
- bucket accumulation emits *random-indexed* loads/stores over the bucket
  array and a *streaming* read of the point array — the mixed access pattern
  behind the proving stage's MPKI (Table II) and its 25 GB/s peak bandwidth
  demand (Table III).
"""

from __future__ import annotations

from repro.context import RUN
from repro.msm.terms import live_terms

__all__ = ["msm_pippenger", "optimal_window"]


#: Modeled size of the prover's live heap (see the accumulation loop).
_OPERAND_HEAP_BYTES = 2 * 1024 * 1024


def optimal_window(n):
    """Pick the window width c minimizing ``n/c + 2^c`` additions per bit.

    Matches the usual ``c ~ log2(n) - 2`` heuristic while staying sane for
    tiny inputs.
    """
    if n < 4:
        return 1
    c = max(2, n.bit_length() - 3)
    return min(c, 16)


def msm_pippenger(group, points, scalars, window=None):
    """Compute ``sum_i scalars[i] * points[i]`` with the bucket method.

    *points* are affine raw-coordinate tuples (``None`` entries and zero
    scalars are skipped), *scalars* plain integers (reduced mod group order).
    """
    pairs = live_terms(group, points, scalars, window)
    if not pairs:
        return group.infinity()
    c = window or optimal_window(len(pairs))
    nbits = group.order.bit_length()
    n_windows = (nbits + c - 1) // c
    mask = (1 << c) - 1

    m = RUN.metrics
    if m is not None:
        m.inc("repro_msm_pippenger_calls_total")
        m.inc("repro_msm_windows_total", n_windows)
        m.observe("repro_msm_points", len(pairs))
    if RUN.faults is not None:
        RUN.faults.check("msm:pippenger")

    t = RUN.tracer
    point_bytes = 2 * group.ops.coord_bytes  # affine (x, y)
    # Buckets hold Jacobian points: three coordinates.
    bucket_bytes = 3 * (point_bytes // 2)
    points_base = buckets_base = heap_base = 0
    if t is not None:
        points_base = t.aspace.alloc(len(pairs) * point_bytes)
        buckets_base = t.aspace.alloc((mask) * bucket_bytes)
        # The prover's live heap (witness values, coordinate temporaries,
        # GC-scattered operands): bucket accumulation touches it with poor
        # locality, which is where the proving stage's MPKI comes from
        # (Table II) — the setup's streaming walk has no equivalent.
        heap_base = t.aspace.alloc(_OPERAND_HEAP_BYTES)

    window_sums = []
    for w in range(n_windows):
        # Cooperative deadline poll between the (independent) window
        # passes — the natural preemption point of the kernel.
        if RUN.deadline is not None:
            RUN.deadline.check()
        shift = w * c
        if t is None:
            buckets = [None] * mask
            for pt, k in pairs:
                digit = (k >> shift) & mask
                if digit:
                    slot = buckets[digit - 1]
                    buckets[digit - 1] = (
                        group.point_unchecked(*pt) if slot is None else slot.add_affine(*pt)
                    )
            window_sums.append(_fold_buckets(group, buckets))
        else:
            with t.region("msm_window", parallel=True, items=len(pairs)):
                # Streaming read of the point/scalar arrays once per window.
                t.mem_block(points_base, len(pairs) * point_bytes, write=False)
                buckets = [None] * mask
                for i, (pt, k) in enumerate(pairs):
                    digit = (k >> shift) & mask
                    t.op("msm_digit")
                    if digit:
                        slot = buckets[digit - 1]
                        buckets[digit - 1] = (
                            group.point_unchecked(*pt) if slot is None else slot.add_affine(*pt)
                        )
                        addr = buckets_base + (digit - 1) * bucket_bytes
                        t.mem_load(addr, bucket_bytes)
                        t.mem_store(addr, bucket_bytes)
                        t.mem_load(heap_base + ((i * n_windows + w) * 2654435761)
                                   % _OPERAND_HEAP_BYTES, 32)
                window_sums.append(_fold_buckets(group, buckets))

    # Horner combine from the most significant window down (doubling the
    # identity before the first add is a harmless no-op).
    acc = group.infinity()
    for ws in reversed(window_sums):
        for _ in range(c):
            acc = acc.double()
        acc = acc + ws
    return acc


def _fold_buckets(group, buckets):
    """Running-sum fold: ``sum_d d * bucket[d]`` in 2*(len-1) additions."""
    running = group.infinity()
    total = group.infinity()
    for slot in reversed(buckets):
        if slot is not None:
            running = running + slot
        total = total + running
    return total
