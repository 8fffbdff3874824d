"""Key and proof containers for Groth16.

Field layout follows the original paper (Groth, EUROCRYPT 2016) and
snarkjs' ``.zkey`` sections.  Points are stored as group ``Point`` objects;
``*_bytes`` helpers report serialized sizes so the instrumented stages can
model realistic key/proof traffic (the proving stage's dominant loads in
Fig. 5 are exactly the zkey stream).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from repro.curves.pairing import engine_for

__all__ = ["ProvingKey", "VerifyingKey", "PreparedVerifyingKey", "Proof"]


def _point_bytes(group):
    """Serialized size of one affine point of *group* (uncompressed)."""
    return 2 * group.ops.coord_bytes


@dataclass
class ProvingKey:
    """Everything the prover needs.

    ``a_query[i] = [u_i(tau)]_1``, ``b1_query[i] = [v_i(tau)]_1``,
    ``b2_query[i] = [v_i(tau)]_2`` for every wire ``i``;
    ``l_query`` covers private wires only
    (``[(beta*u_i + alpha*v_i + w_i)/delta]_1``), and
    ``h_query[k] = [tau^k * Z(tau)/delta]_1`` for ``k < n - 1``.
    """

    curve: object
    alpha1: object
    beta1: object
    beta2: object
    delta1: object
    delta2: object
    a_query: list
    b1_query: list
    b2_query: list
    l_query: dict  # private wire -> point
    h_query: list
    domain_size: int

    def size_bytes(self):
        """Approximate serialized size (the zkey payload the prover streams)."""
        g1 = _point_bytes(self.curve.g1)
        g2 = _point_bytes(self.curve.g2)
        n_g1 = (
            3  # alpha1, beta1, delta1
            + len(self.a_query)
            + len(self.b1_query)
            + len(self.l_query)
            + len(self.h_query)
        )
        n_g2 = 2 + len(self.b2_query)
        return n_g1 * g1 + n_g2 * g2

    def __repr__(self):
        return (
            f"ProvingKey({self.curve.name}, wires={len(self.a_query)}, "
            f"h={len(self.h_query)}, ~{self.size_bytes() // 1024} KiB)"
        )


class PreparedVerifyingKey(NamedTuple):
    """What a pairing check reuses of one :class:`VerifyingKey`: its G2
    constants as line tables (:meth:`PairingEngine.prepare`) and the Miller
    value of ``(alpha1, beta2)`` — *before* the final exponentiation, so that
    multiplying it in gives the very ``Fp12`` element four loops would."""

    beta2: object
    gamma2: object
    delta2: object
    alpha_beta: object


@dataclass(frozen=True)
class VerifyingKey:
    """The verifier's half: four constants plus one commitment per public wire.

    ``ic[k]`` corresponds to ``r1cs.public_wires[k]`` (wire 0 first).
    """

    curve: object
    alpha1: object
    beta2: object
    gamma2: object
    delta2: object
    ic: list
    public_wires: list

    @cached_property
    def prepared(self):
        """The :class:`PreparedVerifyingKey`, built by the first untraced
        check and kept on this object alone: not a field, so it is neither
        compared nor serialised, and ``dataclasses.replace`` starts without."""
        eng = engine_for(self.curve)
        beta2, gamma2, delta2 = (
            eng.prepare(q.to_affine()) for q in (self.beta2, self.gamma2, self.delta2))
        return PreparedVerifyingKey(
            beta2, gamma2, delta2, eng.miller_loop(self.alpha1.to_affine(), beta2))

    def check_publics(self, publics):
        """Raise ``ValueError`` unless *publics* has one value per public
        wire after wire 0."""
        if len(publics) != len(self.ic) - 1:
            raise ValueError(f"expected {len(self.ic) - 1} public inputs, got {len(publics)}")

    def fold_publics(self, publics):
        """``ic[0] + sum_k publics[k] * ic[k + 1]`` — the G1 point the
        public inputs contribute to the pairing check."""
        self.check_publics(publics)
        r = self.curve.fr.modulus
        acc = self.ic[0]
        for coeff, point in zip(publics, self.ic[1:]):
            acc = acc + point * (coeff % r)
        return acc

    def size_bytes(self):
        g1 = _point_bytes(self.curve.g1)
        g2 = _point_bytes(self.curve.g2)
        return (1 + len(self.ic)) * g1 + 3 * g2

    def __repr__(self):
        return f"VerifyingKey({self.curve.name}, public={len(self.ic)})"


@dataclass
class Proof:
    """A Groth16 proof: two G1 points and one G2 point.

    Constant size regardless of circuit — the succinctness the paper's
    Section II credits for zk-SNARK adoption (hundreds of bytes).
    """

    curve: object
    a: object
    b: object
    c: object

    def size_bytes(self):
        return 2 * _point_bytes(self.curve.g1) + _point_bytes(self.curve.g2)

    def __repr__(self):
        return f"Proof({self.curve.name}, {self.size_bytes()} bytes)"
