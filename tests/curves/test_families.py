"""Every curve constant, recomputed from its family polynomials.

``p``, ``r``, the trace, both cofactors, the loop parameter and the
endomorphism records in ``src/`` are literals or derived values; here they
are re-derived from the one integer ``u`` (``CurveSpec.parameter``) by the
BN and BLS12 family polynomials, so a typo in a literal — or a membership
identity that holds for the object but not for the curve — cannot hide.
"""

from math import gcd, isqrt

import pytest
from sympy import isprime

from repro.curves import BLS12_381, BN128


def bn(u):
    p = 36 * u**4 + 36 * u**3 + 24 * u**2 + 6 * u + 1
    r = 36 * u**4 + 36 * u**3 + 18 * u**2 + 6 * u + 1
    return p, r, 6 * u**2 + 1, 6 * u + 2


def bls12(u):
    r = u**4 - u**2 + 1
    p, rem = divmod((u - 1) ** 2 * r, 3)
    assert rem == 0
    return p + u, r, u + 1, abs(u)


FAMILIES = {"bn128": (BN128, bn), "bls12_381": (BLS12_381, bls12)}


@pytest.fixture(params=sorted(FAMILIES))
def family(request):
    curve, polys = FAMILIES[request.param]
    return (curve, *polys(curve.parameter))


def twist_order(p, r, t):
    """Order of the sextic twist of ``E / Fq2`` that has a point of order
    ``r``: traces ``(+-t2 +- 3f) / 2`` with ``t2 = t^2 - 2p`` the trace over
    ``Fq2`` and ``t2^2 - 4p^2 = -3f^2`` (CM discriminant 3)."""
    t2 = t * t - 2 * p
    f = isqrt((4 * p * p - t2 * t2) // 3)
    assert t2 * t2 - 4 * p * p == -3 * f * f
    orders = [p * p + 1 - (s2 * t2 + s3 * 3 * f) // 2 for s2 in (1, -1) for s3 in (1, -1)]
    (order,) = [n for n in orders if n % r == 0]
    return order


def test_moduli_and_loop_parameter(family):
    curve, p, r, t, loop = family
    assert p == curve.fq.modulus and r == curve.fr.modulus
    assert r == curve.g1.order == curve.g2.order
    assert loop == curve.ate_loop and (curve.parameter < 0) == curve.x_negative
    assert isprime(p) and isprime(r)


def test_orders_cofactors_and_embedding_degree(family):
    curve, p, r, t, _ = family
    h1, h2 = curve.g1.cofactor, curve.g2.cofactor
    assert abs(t) <= 2 * isqrt(p)  # Hasse
    assert p + 1 - t == h1 * r
    assert twist_order(p, r, t) == h2 * r
    assert h1 % r != 0 and h2 % r != 0
    # r | Phi_12(p) and p has order exactly 12 mod r.
    assert (p**4 - p**2 + 1) % r == 0
    assert all(pow(p, k, r) != 1 for k in (1, 2, 3, 4, 6))


def test_membership_identities(family):
    # a^2 + c*a + d = m*r with gcd(m, cofactor) = 1, from the polynomials:
    # what Group._admit asserts of the record, asserted here of the curve.
    curve, p, r, t, _ = family
    u = curve.parameter
    h1, h2 = curve.g1.cofactor, curve.g2.cofactor

    def m_of(a, c, d):
        m, rem = divmod(a * a + c * a + d, r)
        assert rem == 0 and 2 * abs(a) < r
        return m

    # phi on E(Fq): a root of x^2 + x + 1, either one.
    lam = -u**2 if curve.family == "bls" else 36 * u**3 + 18 * u**2 + 6 * u + 1
    roots = (lam, -1 - lam)
    assert all(gcd(m_of(a, 1, 1), h1) == 1 for a in roots)
    phi = curve.g1.endomorphism
    assert phi.char == (1, 1) and phi.eigen in roots and phi.basis is not None
    if curve.family == "bls":
        assert m_of(phi.eigen, 1, 1) == 1
    # psi on the twist: p mod r, which is u (BLS12) or t - 1 = 6u^2 (BN).
    a = u if curve.family == "bls" else t - 1
    assert (a - p) % r == 0
    m = m_of(a, -t, p)
    assert m == (h1 if curve.family == "bls" else 1) and gcd(m, h2) == 1
    psi = curve.g2.endomorphism
    assert psi.char == (-t, p) and psi.eigen == a and psi.basis is None
