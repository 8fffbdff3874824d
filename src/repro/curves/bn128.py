"""The BN254 curve ("BN128" in the paper; alt_bn128 in Ethereum).

``E : y^2 = x^3 + 3`` over ``Fq``; the sextic twist
``E' : y^2 = x^3 + 3/(9+u)`` over ``Fq2`` (D-type) hosts G2.
Generators are the EIP-196/197 standard points used by snarkjs.
"""

from repro.curves.curve import CurveSpec, Fp2Ops, FpOps, Group
from repro.curves.endomorphism import phi, psi
from repro.fields.params import BN254_ATE_LOOP, BN254_FQ, BN254_FR, BN254_TOWER, BN254_U

__all__ = ["BN128"]

_G2_GENERATOR_X = (
    10857046999023057135944570762232829481370756359578518086990519993285655852781,
    11559732032986387107991004021392285783925812861821192530917403151452391805634,
)
_G2_GENERATOR_Y = (
    8495653923123431417604973247489272438418190587263600148770280649306958101930,
    4082367875863433681332203403145435568316851327593401208105741076214120093531,
)

#: Cofactor of E'(Fq2) relative to the order-r subgroup.
_G2_COFACTOR = 21888242871839275222246405745257275088844257914179612981679871602714643921549

_g1 = Group(
    name="bn128.G1",
    ops=FpOps(BN254_FQ, tag="g1_bn"),
    b=3,
    generator=(1, 2),
    order=BN254_FR.modulus,
    cofactor=1,
    endomorphisms=phi(BN254_FQ, BN254_FR.modulus),
)

# b2 = 3 / (9 + u) in Fq2.
_b2 = BN254_TOWER.f2_scale(BN254_TOWER.f2_inv(BN254_TOWER.xi), 3)

_g2 = Group(
    name="bn128.G2",
    ops=Fp2Ops(BN254_TOWER, tag="g2_bn"),
    b=_b2,
    generator=(_G2_GENERATOR_X, _G2_GENERATOR_Y),
    order=BN254_FR.modulus,
    cofactor=_G2_COFACTOR,
    endomorphisms=psi(BN254_TOWER, BN254_FR.modulus, t=6 * BN254_U**2 + 1),
)

BN128 = CurveSpec(
    name="bn128",
    family="bn",
    fq=BN254_FQ,
    fr=BN254_FR,
    tower=BN254_TOWER,
    g1=_g1,
    g2=_g2,
    ate_loop=BN254_ATE_LOOP,
    x_negative=False,
    parameter=BN254_U,
)
