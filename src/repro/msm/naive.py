"""Baseline MSM: independent double-and-add per term.

O(n * log r) group operations — the comparator for the Pippenger ablation
test (``tests/paper/test_ablation_msm.py``).
"""

from __future__ import annotations

from repro.context import RUN

__all__ = ["msm_naive"]


def msm_naive(group, points, scalars):
    """Compute ``sum_i scalars[i] * points[i]`` term by term.

    *points* are affine raw-coordinate tuples (or ``None`` for identity),
    *scalars* plain integers.
    """
    if len(points) != len(scalars):
        raise ValueError(f"points/scalars length mismatch: {len(points)} vs {len(scalars)}")
    t = RUN.tracer
    acc = group.infinity()
    if t is None:
        for pt, k in zip(points, scalars):
            # Cooperative deadline poll per term — each term is a full
            # double-and-add, the kernel's natural preemption point.
            if RUN.deadline is not None:
                RUN.deadline.check()
            if pt is None or k % group.order == 0:
                continue
            acc = acc + group.point_unchecked(*pt) * k
        return acc
    with t.region("msm_naive", parallel=True, items=len(points)):
        for pt, k in zip(points, scalars):
            if RUN.deadline is not None:
                RUN.deadline.check()
            if pt is None or k % group.order == 0:
                continue
            acc = acc + group.point_unchecked(*pt) * k
    return acc
