"""GLV endomorphism split for the MSM, on G1 and G2 alike.

Both groups of both curves carry ``phi(x, y) = (beta * x, y)`` (on the
twist ``beta`` scales both ``Fq2`` components), acting on the order-``r``
subgroup as multiplication by ``lambda``.  Gallant–Lambert–Vanstone: split
every scalar ``k`` as ``k = k1 + lambda * k2 (mod r)`` with
``|k1|, |k2| ~ sqrt(r)``, map the sign of each half into a point negation,
and feed the doubled point list with *half-width* scalars to the
signed-digit kernel — which sizes its window count from the widest actual
scalar, so the window passes (and the Horner doublings) halve.

The map, ``lambda`` and the short lattice basis are the group's split
record (``group.split``, :mod:`repro.curves.endomorphism`, derived and
checked when the group is constructed); a group without one (a toy curve)
takes the plain signed-digit path.
"""

from __future__ import annotations

from repro.context import RUN
from repro.curves.endomorphism import decompose_scalar
from repro.msm.terms import live_terms
from repro.msm.wnaf import signed_bucket_msm

__all__ = ["msm_glv"]


def msm_glv(group, points, scalars, window=None, part=None):
    """MSM via GLV decomposition feeding one half-width signed-digit MSM.

    Falls back to the plain signed-digit kernel when the group has no
    split record, so callers can route every group through this entry
    point.  ``part`` is the kernel's window slice; every slice repeats the
    split over all terms.
    """
    pairs = live_terms(group, points, scalars, window)
    split = group.split
    if split is None or not pairs:
        return signed_bucket_msm(group, pairs, window, part)

    m = RUN.metrics
    if m is not None:
        m.inc("repro_msm_glv_calls_total")
        m.inc("repro_msm_glv_decompositions_total", len(pairs))

    neg = group.ops.neg
    order = group.order
    phi, basis = split.map, split.basis
    halves = []  # live (point, half-width scalar) terms, signs folded into the points
    for i, (pt, k) in enumerate(pairs):
        # Cooperative deadline poll amortized over the decomposition loop.
        if not i & 255:
            if RUN.deadline is not None:
                RUN.deadline.check()
        k1, k2 = decompose_scalar(basis, order, k)
        x, y = pt
        if k1 > 0:
            halves.append((pt, k1))
        elif k1 < 0:
            halves.append(((x, neg(y)), -k1))
        if k2 > 0:
            halves.append((phi(x, y), k2))
        elif k2 < 0:
            halves.append((phi(x, neg(y)), -k2))
    del pairs  # the halves replace the live terms: not both alive in the kernel

    return signed_bucket_msm(group, halves, window, part)
