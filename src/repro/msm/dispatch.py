"""The MSM front door: one entry point, nothing to set.

:func:`msm_auto` is what the prover (through
:func:`repro.resilience.degrade.resilient_msm`) and KZG's ``commit`` call.
Which kernel runs follows from what the process can observe, never from an
option:

- under a tracer, the reference :func:`~repro.msm.pippenger.msm_pippenger`
  (the pinning rule, docs/KERNELS.md);
- with a worker pool installed, :func:`repro.parallel.kernels.msm_parallel`:
  from ``pool.min_msm`` *live* terms up each worker sums a slice of the
  windows, below it ``msm_glv`` runs in this process;
- otherwise the fast kernel, :func:`~repro.msm.glv.msm_glv`: the GLV split
  on groups with the endomorphism (G1), the signed-digit / batch-affine
  kernel alone on the others (G2).

Every route computes the same group element, so the choice is invisible
in proof/pk/vk bytes — ``tests/msm/test_kernel_differential.py`` pins it.
"""

from __future__ import annotations

from repro.context import RUN
from repro.msm.glv import msm_glv
from repro.msm.pippenger import msm_pippenger
from repro.parallel.pool import active_pool

__all__ = ["msm_auto"]


def msm_auto(group, points, scalars):
    """Compute ``sum_i scalars[i] * points[i]``.

    Same contract as every MSM kernel: affine raw-coordinate tuples
    (``None`` for infinity), plain integer scalars, identical result bytes
    whichever kernel runs.
    """
    if RUN.tracer is not None:
        return msm_pippenger(group, points, scalars)
    pool = active_pool()
    if pool is not None:
        # Lazy: repro.parallel.kernels imports from this package.
        from repro.parallel.kernels import msm_parallel

        return msm_parallel(group, points, scalars, pool)
    return msm_glv(group, points, scalars)
