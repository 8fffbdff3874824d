"""KZG (Kate-Zaverucha-Goldberg) polynomial commitments.

The commitment scheme under PLONK: a universal structured reference string
``[1, tau, tau^2, ...]_1, [tau]_2`` supports committing to any polynomial
below the SRS degree and opening it at arbitrary points with a single group
element, verified with one pairing check:

    ``e(C - y*G1, G2) == e(W, [tau]_2 - z*G2)``.

Batch openings (many polynomials at one point) fold the polynomials with
powers of a verifier challenge before producing one witness element — the
optimization PLONK's proof size depends on.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.msm.dispatch import msm_auto
from repro.msm.fixed_base import FixedBaseTable

__all__ = ["SRS", "KZG"]


@dataclass
class SRS:
    """A structured reference string for polynomials of degree < ``size``."""

    curve: object
    g1_powers: list   # [tau^i]_1 as affine tuples, i < size
    g2_gen: object    # [1]_2
    g2_tau: object    # [tau]_2

    @property
    def size(self):
        return len(self.g1_powers)

    @classmethod
    def generate(cls, curve, size, rng):
        """Sample tau and build the SRS (the universal trusted setup)."""
        fr = curve.fr
        tau = fr.rand_nonzero(rng)
        table = FixedBaseTable(curve.g1.generator)
        powers = []
        acc = 1
        for _ in range(size):
            powers.append(acc)
            acc = fr.mul(acc, tau)
        return cls(
            curve=curve,
            g1_powers=[pt.to_affine() for pt in table.mul_many(powers)],
            g2_gen=curve.g2.generator,
            g2_tau=curve.g2.generator * tau,
        )


class KZG:
    """Commit/open/verify against one :class:`SRS`."""

    def __init__(self, srs):
        from repro.curves.pairing import engine_for

        self.srs = srs
        self.curve = srs.curve
        self.fr = srs.curve.fr
        self.engine = engine_for(srs.curve)

    # -- commitments -----------------------------------------------------------

    def commit(self, coeffs):
        """Commit to a coefficient vector: ``sum_i c_i [tau^i]_1``."""
        if len(coeffs) > self.srs.size:
            raise ValueError(
                f"polynomial degree {len(coeffs) - 1} exceeds SRS size {self.srs.size}"
            )
        return msm_auto(self.curve.g1, self.srs.g1_powers[: len(coeffs)], coeffs)

    # -- openings ----------------------------------------------------------------

    def _witness_poly(self, coeffs, z, y):
        """Coefficients of ``(p(x) - y) / (x - z)`` by synthetic division."""
        fr = self.fr
        out = [0] * max(len(coeffs) - 1, 1)
        acc = 0
        for i in range(len(coeffs) - 1, 0, -1):
            acc = fr.add(coeffs[i], fr.mul(acc, z))
            out[i - 1] = acc
        # Remainder check: p(z) must equal y.
        rem = fr.add(coeffs[0], fr.mul(acc, z)) if coeffs else 0
        if rem != y % fr.modulus:
            raise ValueError("claimed evaluation does not match the polynomial")
        return out

    def evaluate(self, coeffs, z):
        """Horner evaluation of a coefficient vector."""
        fr = self.fr
        acc = 0
        for c in reversed(coeffs):
            acc = fr.add(fr.mul(acc, z), c)
        return acc

    def verify(self, commitment, z, y, witness):
        """Single-opening pairing check."""
        g1, g2 = self.curve.g1, self.curve.g2
        lhs_g1 = commitment - g1.generator * y
        rhs_g2 = self.srs.g2_tau - g2.generator * z
        # e(C - y G1, G2) * e(-W, [tau - z]_2) == 1
        return self.engine.pairing_check(
            [(lhs_g1, self.srs.g2_gen), (-witness, rhs_g2)]
        )

    # -- batched openings -----------------------------------------------------------

    def open_batch(self, polys, z, v):
        """Open several polynomials at one point with folding challenge *v*.

        Returns ``(evaluations, witness_commitment)`` where the witness
        covers ``sum_i v^i p_i`` — one group element for the whole batch.
        """
        fr = self.fr
        evals = [self.evaluate(p, z) for p in polys]
        folded = []
        scale = 1
        for p in polys:
            if len(p) > len(folded):
                folded.extend([0] * (len(p) - len(folded)))
            for i, c in enumerate(p):
                folded[i] = fr.add(folded[i], fr.mul(scale, c))
            scale = fr.mul(scale, v)
        y = 0
        scale = 1
        for e in evals:
            y = fr.add(y, fr.mul(scale, e))
            scale = fr.mul(scale, v)
        w = self._witness_poly(folded or [0], z, y)
        return evals, self.commit(w)

    def verify_batch(self, commitments, z, evals, witness, v):
        """Verify a batch opening: fold commitments/evals with *v*, then do
        the single pairing check."""
        fr = self.fr
        if len(commitments) != len(evals):
            raise ValueError("commitments/evaluations length mismatch")
        g1 = self.curve.g1
        folded_c = g1.infinity()
        folded_y = 0
        scale = 1
        for c, y in zip(commitments, evals):
            folded_c = folded_c + c * scale
            folded_y = fr.add(folded_y, fr.mul(scale, y % fr.modulus))
            scale = fr.mul(scale, v)
        return self.verify(folded_c, z, folded_y, witness)
