"""Finite-field arithmetic for the zk-SNARK stack.

Two kinds of fields appear in Groth16:

- the **scalar field** ``Fr`` (the field the R1CS/QAP lives in), and
- the **base field** ``Fq`` of the elliptic curve, together with its
  extension tower ``Fq2 / Fq6 / Fq12`` used by G2 and the pairing.

:class:`repro.fields.prime_field.PrimeField` is the arithmetic context: its
methods operate on plain Python integers (the hot path used by the NTT, MSM
and witness kernels) and report themselves to the active tracer as
``bigint_*`` primitives — the ``bigint`` function family the paper's Table IV
identifies as a dominant CPU-time consumer.  There is no element wrapper:
an ``Fq2`` element is a pair of those integers, operated on by the
``TowerParams.f2_*`` kernels, and :class:`Fp6` / :class:`Fp12` hold such
pairs.
"""

from repro.fields.prime_field import PrimeField
from repro.fields.extensions import Fp6, Fp12, TowerParams
from repro.fields.params import (
    BLS12_381_FQ,
    BLS12_381_FR,
    BLS12_381_TOWER,
    BN254_FQ,
    BN254_FR,
    BN254_TOWER,
)

__all__ = [
    "Fp6",
    "Fp12",
    "PrimeField",
    "TowerParams",
    "BN254_FQ",
    "BN254_FR",
    "BN254_TOWER",
    "BLS12_381_FQ",
    "BLS12_381_FR",
    "BLS12_381_TOWER",
]
