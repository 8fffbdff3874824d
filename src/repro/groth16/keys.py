"""Key and proof containers for Groth16.

Field layout follows the original paper (Groth, EUROCRYPT 2016) and
snarkjs' ``.zkey`` sections.  Points are stored as group ``Point`` objects;
``*_bytes`` helpers report serialized sizes so the instrumented stages can
model realistic key/proof traffic (the proving stage's dominant loads in
Fig. 5 are exactly the zkey stream).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ProvingKey", "VerifyingKey", "Proof"]


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


@dataclass
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
