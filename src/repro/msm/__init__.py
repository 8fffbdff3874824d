"""Multi-scalar multiplication kernels.

MSM is the dominant kernel of Groth16's setup and proving stages (the module
PipeZK and DistMSM accelerate).  Production code calls
:func:`repro.msm.dispatch.msm_auto`, the one front door (which kernel runs,
and why nothing selects it: docs/KERNELS.md); the kernels behind it are

- :func:`repro.msm.pippenger.msm_pippenger` — windowed bucket method, the
  reference every optimization is differentially gated against and the
  kernel traced runs see,
- :func:`repro.msm.glv.msm_glv` — GLV endomorphism split on G1 feeding
  half-width scalars to :func:`repro.msm.wnaf.msm_wnaf`, the signed-digit /
  batch-affine bucket kernel it falls back to whole on G2,
- :func:`repro.msm.naive.msm_naive` — per-point double-and-add: the degrade
  ladder's last rung and the tests' oracle,
- :class:`repro.msm.fixed_base.FixedBaseTable` — fixed-base comb used by the
  trusted setup, where thousands of scalars share one base point.
"""

from repro.msm.dispatch import msm_auto
from repro.msm.fixed_base import FixedBaseTable
from repro.msm.glv import msm_glv
from repro.msm.naive import msm_naive
from repro.msm.pippenger import msm_pippenger, optimal_window
from repro.msm.recode import signed_windows, signed_windows_len
from repro.msm.wnaf import msm_wnaf, optimal_signed_window

__all__ = [
    "FixedBaseTable",
    "msm_auto",
    "msm_glv",
    "msm_naive",
    "msm_pippenger",
    "msm_wnaf",
    "optimal_signed_window",
    "optimal_window",
    "signed_windows",
    "signed_windows_len",
]
