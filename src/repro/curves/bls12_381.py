"""The BLS12-381 curve (Zcash's curve; the paper's second evaluation axis).

``E : y^2 = x^3 + 4`` over ``Fq``; the sextic twist
``E' : y^2 = x^3 + 4(1+u)`` over ``Fq2`` (M-type) hosts G2.
Generators are the standard points from the Zcash/IETF specifications.
"""

from repro.curves.curve import CurveSpec, Fp2Ops, FpOps, Group
from repro.curves.endomorphism import phi, psi
from repro.fields.params import BLS12_381_FQ, BLS12_381_FR, BLS12_381_TOWER, BLS12_381_X

__all__ = ["BLS12_381"]

_G1_GENERATOR = (
    3685416753713387016781088315183077757961620795782546409894578378688607592378376318836054947676345821548104185464507,
    1339506544944476473020471379941921221584933875938349620426543736416511423956333506472724655353366534992391756441569,
)

_G2_GENERATOR_X = (
    352701069587466618187139116011060144890029952792775240219908644239793785735715026873347600343865175952761926303160,
    3059144344244213709971259814753781636986470325476647558659373206291635324768958432433509563104347017837885763365758,
)
_G2_GENERATOR_Y = (
    1985150602287291935568054521177171638300868978215655730859378665066344726373823718423869104263333984641494340347905,
    927553665492332455747201965776037880757740193453592970025027978793976877002675564980949289727957565575433344219582,
)

_G1_COFACTOR = 0x396C8C005555E1568C00AAAB0000AAAB
_G2_COFACTOR = int(
    "5d543a95414e7f1091d50792876a202cd91de4547085abaa68a205b2e5a7ddfa"
    "628f1cb4d9e82ef21537e293a6691ae1616ec6e786f0c70cf1c38e31c7238e5",
    16,
)

# phi is G1's membership test and its GLV split alike.
_phi = phi(BLS12_381_FQ, BLS12_381_FR.modulus)

_g1 = Group(
    name="bls12_381.G1",
    ops=FpOps(BLS12_381_FQ, tag="g1_bls"),
    b=4,
    generator=_G1_GENERATOR,
    order=BLS12_381_FR.modulus,
    cofactor=_G1_COFACTOR,
    endomorphisms=_phi,
    splits=_phi,
)

# b2 = 4 * (1 + u) in Fq2.
_b2 = BLS12_381_TOWER.f2_scale(BLS12_381_TOWER.xi, 4)

_g2 = Group(
    name="bls12_381.G2",
    ops=Fp2Ops(BLS12_381_TOWER, tag="g2_bls"),
    b=_b2,
    generator=(_G2_GENERATOR_X, _G2_GENERATOR_Y),
    order=BLS12_381_FR.modulus,
    cofactor=_G2_COFACTOR,
    endomorphisms=psi(BLS12_381_TOWER, BLS12_381_FR.modulus, t=BLS12_381_X + 1),
    # phi on the twist: beta in Fq scales both Fq2 components of x.
    splits=phi(BLS12_381_FQ, BLS12_381_FR.modulus, scale=BLS12_381_TOWER.f2_scale),
)

BLS12_381 = CurveSpec(
    name="bls12_381",
    family="bls",
    fq=BLS12_381_FQ,
    fr=BLS12_381_FR,
    tower=BLS12_381_TOWER,
    g1=_g1,
    g2=_g2,
    ate_loop=-BLS12_381_X,  # Miller loop runs over |x|
    x_negative=True,
    parameter=BLS12_381_X,
)
