"""Elliptic-curve groups and pairings for BN254 ("BN128") and BLS12-381.

The module exposes one :class:`~repro.curves.curve.CurveSpec` per supported
curve, each bundling the base/scalar fields, the G1 and G2 groups, and the
parameters the optimal-ate pairing needs.  ``get_curve(name)`` is the lookup
used throughout the harness ("bn128" / "bls12_381", matching the paper's
curve axis).
"""

from repro.curves.curve import CurveSpec, FpOps, Fp2Ops, Group, Point
from repro.curves.bn128 import BN128
from repro.curves.bls12_381 import BLS12_381
from repro.curves.pairing import PairingEngine, engine_for

_CURVES = {
    "bn128": BN128,
    "bn254": BN128,
    "bls12_381": BLS12_381,
    "bls12-381": BLS12_381,
}


def get_curve(name):
    """Return the :class:`CurveSpec` registered under *name*.

    Accepts the paper's names ("bn128", "bls12_381") plus common aliases.
    """
    try:
        return _CURVES[name.lower().replace("-", "_")]
    except KeyError:
        raise ValueError(f"unknown curve {name!r}; choose from {sorted(set(_CURVES))}") from None


CURVE_NAMES = ("bn128", "bls12_381")

__all__ = [
    "BLS12_381",
    "BN128",
    "CURVE_NAMES",
    "CurveSpec",
    "Fp2Ops",
    "FpOps",
    "Group",
    "PairingEngine",
    "Point",
    "engine_for",
    "get_curve",
]
