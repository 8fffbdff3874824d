"""Signed-digit (wNAF-window) Pippenger MSM with batch-affine buckets.

Three structural improvements over the textbook bucket method (unsigned
windows, Jacobian buckets: what :func:`repro.msm.pippenger.charge_pippenger`
charges a traced run and ``tests/oracle.py`` executes), each pinned by the
differential suite (``tests/msm/test_kernel_differential.py``):

- **signed digits** (:func:`repro.msm.recode.digit_columns`, streamed a
  window at a time): digits lie in ``[-(2^(c-1) - 1), 2^(c-1)]`` and a
  negative digit scatters the *negated* point (free in affine
  coordinates), so a window needs ``2^(c-1)`` buckets instead of
  ``2^c - 1`` — the running-sum fold halves;
- **batch-affine accumulation**
  (:func:`repro.msm.batch_affine.batch_affine_accumulate`): bucket sums are
  built from ~6-multiplication affine additions whose inversions are
  amortized by Montgomery's trick, instead of ~11-multiplication Jacobian
  mixed additions;
- **one affine fold across windows**: the running-sum fold of every window
  advances together, bucket index by bucket index, two
  :func:`~repro.msm.batch_affine.batch_affine_add` waves a step, in place
  of a mixed and a full Jacobian addition per window and step.

The kernel also sizes its window count from the widest *actual* scalar
(the reference kernel always walks ``order.bit_length()`` windows), which
is what lets the GLV wrapper (:mod:`repro.msm.glv`) cash in its half-width
decomposition by simply calling this kernel.

The result is the same group element the reference kernel computes —
bit-identical after affine normalization — for every input, including the
edge scalars (0, 1, ``order - 1``, ``>= order``) and identity points.
"""

from __future__ import annotations

from itertools import islice

from repro.context import RUN
from repro.msm.batch_affine import batch_affine_accumulate, batch_affine_add
from repro.msm.recode import digit_columns, signed_windows_len
from repro.msm.terms import live_terms

__all__ = ["msm_wnaf", "optimal_signed_window", "signed_bucket_msm"]

#: Costs in counted field multiplications + squarings (``tests/oracle.py``,
#: ``count_ops``) of one bucket addition — a ``batch_affine_add`` wave slot:
#: 3 for the shared inversion, 3 for slope, ``x3`` and ``y3`` — and of one
#: fold slot, two such wave slots (running sum, then total).
_PAIR_ADD_COST = 6
_FOLD_SLOT_COST = 12


# codelint: ignore[RC501] -- 15-iteration arg-min over window widths, no data-sized loop
def optimal_signed_window(n, nbits):
    """Window width minimizing modeled signed-kernel work for *n* points of
    *nbits*-bit scalars.

    Unlike :func:`repro.msm.pippenger.optimal_window`, this accounts for
    the scalar width: GLV feeds half-width scalars through the kernel, and
    the best window for 2n half-width scalars is narrower than for n
    full-width ones (fewer windows amortize the per-window fold less).
    """
    best_c, best_cost = 2, None
    for c in range(2, 17):
        n_windows = (nbits + c - 1) // c + 1
        cost = n_windows * (n * _PAIR_ADD_COST + (1 << (c - 1)) * _FOLD_SLOT_COST)
        if best_cost is None or cost < best_cost:
            best_c, best_cost = c, cost
    return best_c


def msm_wnaf(group, points, scalars, window=None):
    """Compute ``sum_i scalars[i] * points[i]`` with signed-digit buckets.

    Same contract as the reference kernel (:func:`repro.msm.terms.live_terms`):
    *points* are affine raw-coordinate tuples (``None`` entries and zero
    scalars are skipped), *scalars* plain integers (reduced mod the group
    order).
    """
    return signed_bucket_msm(group, live_terms(group, points, scalars, window), window)


def signed_bucket_msm(group, pairs, window=None, part=None):
    """The bucket kernel proper over ``(point, scalar)`` *pairs* that are
    already live (finite point, ``0 < scalar``) — what :func:`msm_wnaf`
    filters down to and the GLV split produces directly.  ``part=(j, k)``
    walks only windows ``[j*n//k, (j+1)*n//k)`` of the ``n`` and shifts
    their sum by ``2^(c*lo)``: the ``k`` slices add up to the full sum."""
    if not pairs:
        return group.infinity()
    # Window count follows the widest actual scalar (not the order): GLV
    # feeds half-width scalars through here and gets half the windows.
    nbits = max(k.bit_length() for _pt, k in pairs)
    c = window or optimal_signed_window(len(pairs), nbits)
    n_digits = signed_windows_len(nbits, c)
    half = 1 << (c - 1)
    j, k = part or (0, 1)
    lo, hi = j * n_digits // k, (j + 1) * n_digits // k

    m = RUN.metrics
    if m is not None:
        m.inc("repro_msm_wnaf_calls_total")
        m.inc("repro_msm_windows_total", hi - lo)
        m.observe("repro_msm_points", len(pairs))
    if RUN.faults is not None:
        # The MSM's one fault site, named for the bucket method: chaos
        # faults shipped at it fire in every serial or pooled MSM.
        RUN.faults.check("msm:pippenger")

    ops = group.ops
    neg = ops.neg
    windows = []  # the slice's affine buckets, one list a window
    columns = digit_columns((k for _pt, k in pairs), c, start=lo)
    for column in islice(columns, hi - lo):
        # Cooperative deadline poll between the independent window passes.
        if RUN.deadline is not None:
            RUN.deadline.check()
        # Streamed, not listed: the accumulator files each point as it comes.
        entries = ((d, pt) if d > 0 else (-d, (pt[0], neg(pt[1])))
                   for (pt, _k), d in zip(pairs, column) if d)
        windows.append(batch_affine_accumulate(group, half, entries))

    # Running-sum fold of every window at once, from the top bucket down:
    # one wave advances each window's running sum, a second adds it into
    # the window's total, each behind one shared inversion.
    running = totals = [None] * len(windows)
    for b in range(half - 1, -1, -1):
        running = batch_affine_add(ops, running, [buckets[b] for buckets in windows])
        totals = batch_affine_add(ops, totals, running)

    # Horner combine from the most significant window down (identical to
    # the reference kernel's combine step), then a slice's shift.  Windows
    # past the last nonzero column are zero and add nothing.
    acc = group.infinity()
    for total in reversed(totals):
        for _ in range(c):
            acc = acc.double()
        if total is not None:
            acc = acc.add_affine(*total)
    for _ in range(c * lo):
        acc = acc.double()
    return acc
