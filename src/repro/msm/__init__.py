"""Multi-scalar multiplication kernels.

MSM is the dominant kernel of Groth16's setup and proving stages (the module
PipeZK and DistMSM accelerate).  Production code calls
:func:`repro.msm.dispatch.msm_auto`, the one front door (which kernel runs,
and why nothing selects it: docs/KERNELS.md); the kernels behind it are

- :func:`repro.msm.glv.msm_glv` — GLV endomorphism split (G1 and G2)
  feeding half-width scalars to :func:`repro.msm.wnaf.msm_wnaf`, the
  signed-digit / batch-affine bucket kernel with one affine fold across its
  windows,
- :func:`repro.msm.naive.msm_naive` — per-point double-and-add: the degrade
  ladder's last rung and the tests' oracle,
- :class:`repro.msm.fixed_base.FixedBaseTable` — fixed-base multiples for the
  trusted setup, where thousands of scalars share one base point.

A traced call is charged the textbook bucket method,
:func:`repro.msm.pippenger.charge_pippenger`; the executed bucket method,
the reference every kernel is differentially gated against, is
``tests/oracle.py``'s ``msm_pippenger``.
"""

from repro.msm.dispatch import msm_auto
from repro.msm.fixed_base import FixedBaseTable
from repro.msm.glv import msm_glv
from repro.msm.naive import msm_naive
from repro.msm.pippenger import optimal_window
from repro.msm.recode import signed_windows_len
from repro.msm.wnaf import msm_wnaf, optimal_signed_window

__all__ = [
    "FixedBaseTable",
    "msm_auto",
    "msm_glv",
    "msm_naive",
    "msm_wnaf",
    "optimal_signed_window",
    "optimal_window",
    "signed_windows_len",
]
