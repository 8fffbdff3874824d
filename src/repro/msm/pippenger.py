"""Pippenger (bucket-method) multi-scalar multiplication, as charged.

The modeled proving-stage MSM is the textbook bucket method: scalars are
cut into ``c``-bit windows; each window pass scatters points into
``2^c - 1`` Jacobian buckets (mixed additions), folds the buckets with a
running sum, and the window results are combined with ``c`` doublings
each.  Only ``tests/oracle.py`` executes it: a traced ``msm_auto``
computes its value by the fast kernel and :func:`charge_pippenger` charges
the bucket method's trace from the scalars' digits and the buckets they
occupy (docs/KERNELS.md, "Charging a reference").

Instrumentation notes (what the paper's analyses see):

- every window pass is a *parallel* region — windows are independent, which
  is the core of the proving stage's 70%+ parallel fraction (Table VI);
- bucket accumulation emits *random-indexed* loads/stores over the bucket
  array and a *streaming* read of the point array — the mixed access pattern
  behind the proving stage's MPKI (Table II) and its 25 GB/s peak bandwidth
  demand (Table III).
"""

from __future__ import annotations

from repro.context import RUN, charge

__all__ = ["charge_pippenger", "optimal_window"]


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


def charge_pippenger(t, group, terms):
    """Charge *t* the bucket method over the live ``(point, k mod r)``
    *terms* (:func:`repro.msm.terms.live_terms`), reading only the scalars.

    Per window a ``parallel`` ``msm_window`` region: the point array's
    streaming read, per term an ``msm_digit`` and, for a non-zero digit, a
    mixed addition into an occupied bucket and the bucket's and the heap
    operand's memory events; then the fold's additions from the occupied
    buckets.  Last, the Horner combine's doublings and additions.  Every
    addition is the generic branch's but the fold's one structural
    doubling (docs/KERNELS.md, "The ``H == 0`` rule").
    """
    if not terms:
        return
    n, cost = len(terms), group.cost
    add_affine = cost["add_affine"]
    c = optimal_window(n)
    n_windows = (group.order.bit_length() + c - 1) // c
    mask = (1 << c) - 1
    point_bytes = 2 * group.ops.coord_bytes  # affine (x, y)
    bucket_bytes = 3 * group.ops.coord_bytes  # Jacobian buckets
    points_base = t.aspace.alloc(n * point_bytes)
    buckets_base = t.aspace.alloc(mask * bucket_bytes)
    # The prover's live heap (witness values, coordinate temporaries,
    # GC-scattered operands): bucket accumulation touches it with poor
    # locality, which is where the proving stage's MPKI comes from
    # (Table II) — the setup's streaming walk has no equivalent.
    heap_base = t.aspace.alloc(_OPERAND_HEAP_BYTES)
    live = []  # whether each window's sum is finite
    for w in range(n_windows):
        if RUN.deadline is not None:
            RUN.deadline.check()
        shift, occupied = w * c, set()
        with t.region("msm_window", parallel=True, items=n):
            t.mem_block(points_base, n * point_bytes, write=False)
            for i, (_pt, k) in enumerate(terms):
                t.op("msm_digit")
                digit = (k >> shift) & mask
                if digit:
                    if digit in occupied:
                        charge(t, add_affine)
                    else:
                        occupied.add(digit)
                    addr = buckets_base + (digit - 1) * bucket_bytes
                    t.mem_load(addr, bucket_bytes)
                    t.mem_store(addr, bucket_bytes)
                    t.mem_load(heap_base + ((i * n_windows + w) * 2654435761)
                               % _OPERAND_HEAP_BYTES, 32)
            if occupied:
                # Running sum from the top bucket down: one addition a
                # further occupied bucket, one into the total a step below
                # the top, where the total meets an equal running sum when
                # the bucket just below the top is empty.
                top = max(occupied)
                doubling = top > 1 and top - 1 not in occupied
                charge(t, cost["add_doubling"], doubling)
                charge(t, cost["add"], len(occupied) - 2 + top - doubling)
        live.append(bool(occupied))
    # Horner from the top live window down: ``c`` doublings a window below
    # it, and one addition a live one.
    below = live[:max(w for w in range(n_windows) if live[w])]
    charge(t, cost["double"], c * len(below))
    charge(t, cost["add"], sum(below))
