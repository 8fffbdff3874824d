"""Binary serialization of Groth16 keys and proofs.

A compact sectioned format in the spirit of snarkjs' ``.zkey`` /
``proof.json``: little-endian ``u32`` lengths, uncompressed affine points
(identity encoded as an all-zero coordinate pair, which is not a valid
curve point otherwise), and fixed-width field elements.  Deserialization
validates every point against the curve equation, so a corrupted or
malicious key fails loudly rather than producing garbage proofs.

Every rejection raises
:class:`~repro.resilience.errors.ArtifactCorruption` (a ``ValueError``
subclass) naming what was expected versus found — truncated and
oversized blobs included — and the small artifacts (proofs, verifying
keys, the proving key's header points) additionally get a subgroup check
(:meth:`~repro.curves.curve.Group.in_subgroup`): on-curve-but-wrong-
subgroup points are the classic malleability vector the curve equation
alone cannot catch.  The proving key's bulk query sections stay
equation-checked only — thousands of scalar multiplications per load
would dwarf the deserialization itself, and the prover's output is
verified downstream anyway.

The byte sizes produced here are exactly what
:meth:`repro.groth16.keys.ProvingKey.size_bytes` models for the traced
zkey streams.
"""

from __future__ import annotations

import struct

from repro.context import RUN
from repro.groth16.keys import Proof, ProvingKey, VerifyingKey
from repro.resilience.errors import ArtifactCorruption

__all__ = [
    "proof_to_bytes", "proof_from_bytes",
    "vk_to_bytes", "vk_from_bytes",
    "pk_to_bytes", "pk_from_bytes",
]

_MAGIC_PROOF = b"RPRF"
_MAGIC_VK = b"RPVK"
_MAGIC_PK = b"RPPK"

_CURVE_IDS = {"bn128": 1, "bls12_381": 2}
_CURVE_BY_ID = {v: k for k, v in _CURVE_IDS.items()}


class _Writer:
    def __init__(self):
        self.parts = []

    def u32(self, v):
        self.parts.append(struct.pack("<I", v))

    def raw(self, b):
        self.parts.append(b)

    def bytes(self):
        return b"".join(self.parts)


class _Reader:
    def __init__(self, data, artifact="blob"):
        self.data = data
        self.pos = 0
        self.artifact = artifact

    def u32(self):
        if self.pos + 4 > len(self.data):
            raise ArtifactCorruption(
                f"truncated {self.artifact}: u32 at offset {self.pos}",
                artifact=self.artifact,
                expected=f">= {self.pos + 4} bytes",
                actual=f"{len(self.data)} bytes",
            )
        (v,) = struct.unpack_from("<I", self.data, self.pos)
        self.pos += 4
        return v

    def raw(self, n):
        if self.pos + n > len(self.data):
            raise ArtifactCorruption(
                f"truncated {self.artifact}: {n}-byte field at offset {self.pos}",
                artifact=self.artifact,
                expected=f">= {self.pos + n} bytes",
                actual=f"{len(self.data)} bytes",
            )
        out = self.data[self.pos: self.pos + n]
        self.pos += n
        return out

    def done(self):
        if self.pos != len(self.data):
            raise ArtifactCorruption(
                f"oversized {self.artifact}: "
                f"{len(self.data) - self.pos} trailing bytes",
                artifact=self.artifact,
                expected=f"{self.pos} bytes",
                actual=f"{len(self.data)} bytes",
            )


# -- point codecs ---------------------------------------------------------------


def _write_point(w, group, point):
    nb = group.ops.coord_bytes
    aff = point.to_affine()
    if aff is None:
        w.raw(b"\x00" * (2 * nb))
        return
    x, y = aff
    if hasattr(group.ops, "fq"):
        fq = group.ops.fq
        w.raw(fq.to_bytes(x))
        w.raw(fq.to_bytes(y))
    else:
        fq = group.ops.tower.fq
        for c in (*x, *y):
            w.raw(fq.to_bytes(c))


def _read_point(r, group, subgroup=False):
    nb = group.ops.coord_bytes
    offset = r.pos
    blob = r.raw(2 * nb)
    if blob == b"\x00" * (2 * nb):
        return group.infinity()
    try:
        if hasattr(group.ops, "fq"):
            fq = group.ops.fq
            x = fq.from_bytes(blob[:nb])
            y = fq.from_bytes(blob[nb:])
        else:
            fq = group.ops.tower.fq
            half = nb // 2
            x = (fq.from_bytes(blob[:half]), fq.from_bytes(blob[half: 2 * half]))
            y = (fq.from_bytes(blob[2 * half: 3 * half]),
                 fq.from_bytes(blob[3 * half:]))
        pt = group.point(x, y)  # validates reduced coordinates + curve equation
    except ValueError as exc:
        raise ArtifactCorruption(
            f"corrupt {r.artifact}: point at offset {offset} "
            f"is not a valid curve point ({exc})",
            artifact=r.artifact,
        ) from exc
    if subgroup and not group.in_subgroup(pt):
        raise ArtifactCorruption(
            f"corrupt {r.artifact}: point at offset {offset} is on the "
            "curve but outside the prime-order subgroup",
            artifact=r.artifact,
        )
    return pt


def _write_points(w, group, points):
    w.u32(len(points))
    for p in points:
        _write_point(w, group, p)


def _read_points(r, group, subgroup=False):
    return [_read_point(r, group, subgroup=subgroup) for _ in range(r.u32())]


def _header(w, magic, curve):
    w.raw(magic)
    w.u32(_CURVE_IDS[curve.name])


def _check_header(r, magic):
    from repro.curves import get_curve

    got = r.raw(4)
    if got != magic:
        raise ArtifactCorruption(
            f"bad magic {got!r}, expected {magic!r}", artifact=r.artifact,
        )
    curve_id = r.u32()
    if curve_id not in _CURVE_BY_ID:
        raise ArtifactCorruption(
            f"unknown curve id {curve_id} in {r.artifact}",
            artifact=r.artifact,
        )
    return get_curve(_CURVE_BY_ID[curve_id])


# -- proof -----------------------------------------------------------------------


def proof_to_bytes(proof):
    if RUN.faults is not None:
        RUN.faults.check("serialize:proof")
    w = _Writer()
    _header(w, _MAGIC_PROOF, proof.curve)
    _write_point(w, proof.curve.g1, proof.a)
    _write_point(w, proof.curve.g2, proof.b)
    _write_point(w, proof.curve.g1, proof.c)
    return w.bytes()


def proof_from_bytes(data):
    if RUN.faults is not None:
        RUN.faults.check("serialize:proof")
    r = _Reader(data, artifact="proof")
    curve = _check_header(r, _MAGIC_PROOF)
    a = _read_point(r, curve.g1, subgroup=True)
    b = _read_point(r, curve.g2, subgroup=True)
    c = _read_point(r, curve.g1, subgroup=True)
    r.done()
    return Proof(curve=curve, a=a, b=b, c=c)


# -- verifying key ------------------------------------------------------------------


def vk_to_bytes(vk):
    if RUN.faults is not None:
        RUN.faults.check("serialize:vk")
    w = _Writer()
    _header(w, _MAGIC_VK, vk.curve)
    _write_point(w, vk.curve.g1, vk.alpha1)
    _write_point(w, vk.curve.g2, vk.beta2)
    _write_point(w, vk.curve.g2, vk.gamma2)
    _write_point(w, vk.curve.g2, vk.delta2)
    _write_points(w, vk.curve.g1, vk.ic)
    w.u32(len(vk.public_wires))
    for wire in vk.public_wires:
        w.u32(wire)
    return w.bytes()


def vk_from_bytes(data):
    if RUN.faults is not None:
        RUN.faults.check("serialize:vk")
    r = _Reader(data, artifact="verifying key")
    curve = _check_header(r, _MAGIC_VK)
    alpha1 = _read_point(r, curve.g1, subgroup=True)
    beta2 = _read_point(r, curve.g2, subgroup=True)
    gamma2 = _read_point(r, curve.g2, subgroup=True)
    delta2 = _read_point(r, curve.g2, subgroup=True)
    ic = _read_points(r, curve.g1, subgroup=True)
    public_wires = [r.u32() for _ in range(r.u32())]
    r.done()
    if len(ic) != len(public_wires):
        raise ArtifactCorruption(
            "IC/public-wire length mismatch", artifact="verifying key",
            expected=f"{len(ic)} wires", actual=f"{len(public_wires)} wires",
        )
    return VerifyingKey(curve=curve, alpha1=alpha1, beta2=beta2, gamma2=gamma2,
                        delta2=delta2, ic=ic, public_wires=public_wires)


# -- proving key ----------------------------------------------------------------------


def pk_to_bytes(pk):
    if RUN.faults is not None:
        RUN.faults.check("serialize:pk")
    w = _Writer()
    _header(w, _MAGIC_PK, pk.curve)
    w.u32(pk.domain_size)
    for pt in (pk.alpha1, pk.beta1, pk.delta1):
        _write_point(w, pk.curve.g1, pt)
    for pt in (pk.beta2, pk.delta2):
        _write_point(w, pk.curve.g2, pt)
    _write_points(w, pk.curve.g1, pk.a_query)
    _write_points(w, pk.curve.g1, pk.b1_query)
    _write_points(w, pk.curve.g2, pk.b2_query)
    _write_points(w, pk.curve.g1, pk.h_query)
    wires = sorted(pk.l_query)
    w.u32(len(wires))
    for wire in wires:
        w.u32(wire)
        _write_point(w, pk.curve.g1, pk.l_query[wire])
    return w.bytes()


def pk_from_bytes(data):
    if RUN.faults is not None:
        RUN.faults.check("serialize:pk")
    r = _Reader(data, artifact="proving key")
    curve = _check_header(r, _MAGIC_PK)
    domain_size = r.u32()
    # Header points get the full subgroup check; the bulk query sections
    # below stay curve-equation-only (see the module docstring).
    alpha1, beta1, delta1 = (_read_point(r, curve.g1, subgroup=True)
                             for _ in range(3))
    beta2, delta2 = (_read_point(r, curve.g2, subgroup=True)
                     for _ in range(2))
    a_query = _read_points(r, curve.g1)
    b1_query = _read_points(r, curve.g1)
    b2_query = _read_points(r, curve.g2)
    h_query = _read_points(r, curve.g1)
    l_query = {}
    for _ in range(r.u32()):
        wire = r.u32()
        l_query[wire] = _read_point(r, curve.g1)
    r.done()
    return ProvingKey(
        curve=curve, alpha1=alpha1, beta1=beta1, beta2=beta2,
        delta1=delta1, delta2=delta2, a_query=a_query, b1_query=b1_query,
        b2_query=b2_query, l_query=l_query, h_query=h_query,
        domain_size=domain_size,
    )
