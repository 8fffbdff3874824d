"""Signed-digit (wNAF-window) Pippenger MSM with batch-affine buckets.

Two structural improvements over :func:`repro.msm.pippenger.msm_pippenger`,
each individually pinned by the differential suite
(``tests/msm/test_kernel_differential.py``):

- **signed digits** (:func:`repro.msm.recode.signed_windows`): window
  digits lie in ``[-(2^(c-1) - 1), 2^(c-1)]`` and a negative digit scatters
  the *negated* point (free in affine coordinates), so a window needs
  ``2^(c-1)`` buckets instead of ``2^c - 1`` — the running-sum fold, the
  expensive serial part of a window pass, halves;
- **batch-affine accumulation**
  (:func:`repro.msm.batch_affine.batch_affine_accumulate`): bucket sums are
  built from ~6-multiplication affine additions whose inversions are
  amortized by Montgomery's trick, instead of ~11-multiplication Jacobian
  mixed additions.

The kernel also sizes its window count from the widest *actual* scalar
(the reference kernel always walks ``order.bit_length()`` windows), which
is what lets the GLV wrapper (:mod:`repro.msm.glv`) cash in its half-width
decomposition by simply calling this kernel.

The result is the same group element the reference kernel computes —
bit-identical after affine normalization — for every input, including the
edge scalars (0, 1, ``order - 1``, ``>= order``) and identity points.
"""

from __future__ import annotations

from repro.context import RUN
from repro.msm.batch_affine import batch_affine_accumulate
from repro.msm.recode import signed_windows, signed_windows_len
from repro.msm.terms import live_terms

__all__ = ["msm_wnaf", "optimal_signed_window", "signed_bucket_msm"]

#: Relative costs (in field-call units) of one batch-affine pair addition
#: and one fold slot (mixed + full Jacobian addition), used by the window
#: chooser below.  Rough but measured: a pair add is ~12 adapter calls, a
#: fold slot ~50.
_PAIR_ADD_COST = 12
_FOLD_SLOT_COST = 50


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
        # Same fault site as the reference kernel: chaos faults shipped at
        # the MSM site fire regardless of which bucket kernel is active.
        RUN.faults.check("msm:pippenger")

    ops = group.ops
    neg = ops.neg
    rows = [signed_windows(k, c, n_digits) for _pt, k in pairs]

    window_sums = []
    for w in range(lo, hi):
        # Cooperative deadline poll between the independent window passes,
        # like the reference kernel.
        if RUN.deadline is not None:
            RUN.deadline.check()
        entries = []
        for i, (pt, _k) in enumerate(pairs):
            d = rows[i][w]
            if d > 0:
                entries.append((d, pt))
            elif d < 0:
                entries.append((-d, (pt[0], neg(pt[1]))))
        buckets = batch_affine_accumulate(group, half, entries)
        window_sums.append(_fold_affine(group, buckets))

    # Horner combine from the most significant window down (identical to
    # the reference kernel's combine step), then a slice's shift.
    acc = group.infinity()
    for ws in reversed(window_sums):
        for _ in range(c):
            acc = acc.double()
        acc = acc + ws
    for _ in range(c * lo):
        acc = acc.double()
    return acc


def _fold_affine(group, buckets):
    """Running-sum fold over affine bucket values: ``sum_d d * bucket[d]``.

    The running sum grows by cheap mixed additions (buckets are affine),
    only the total needs full Jacobian additions.
    """
    running = group.infinity()
    total = group.infinity()
    for slot in reversed(buckets):
        if slot is not None:
            running = running.add_affine(*slot)
        total = total + running
    return total
