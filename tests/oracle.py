"""Oracles the fast routes are compared with.

*The tracer* (docs/KERNELS.md, "The pinning rule"): every fast kernel has a
textbook twin that the same public call runs under ``RUN.tracer``, so the
reference value of a differential test is that call made under a throwaway
tracer — no second entry point, no environment.

*The ladder* (docs/KERNELS.md, "Membership by endomorphism"): ``[k]P`` by
unreduced binary double-and-add with general additions.  ``Point.__mul__``
reduces its scalar mod ``r`` and ``Group.in_subgroup`` no longer computes
``[r]P``; this is what both are checked against, and what certifies the
rogue points built here as outside the subgroup — never the code under test.
"""

from repro.perf.trace import Tracer, tracing


def reference(fn, *args):
    """``fn(*args)`` as a traced run computes it."""
    with tracing(Tracer()):
        return fn(*args)


def ladder_mul(pt, k):
    """``[k]pt`` for any ``k >= 0`` and any point of the curve."""
    acc = pt.group.infinity()
    for bit in bin(k)[2:]:
        acc = acc.double()
        if bit == "1":
            acc = acc + pt
    return acc


def ladder(group, pt):
    """``[r]pt == O`` — what ``Group.in_subgroup`` used to compute."""
    return ladder_mul(pt, group.order).is_infinity()


def f2_sqrt(tower, a):
    """A square root of the Fp2 pair *a*, or ``None`` (complex method)."""
    fq = tower.fq
    a0, a1 = a
    norm = fq.add(fq.sqr(a0), fq.sqr(a1))
    if fq.legendre(norm) == -1:
        return None
    for s in (fq.sqrt(norm), fq.neg(fq.sqrt(norm))):
        x0_sq = fq.mul(fq.add(a0, s), fq.inv(2))
        if fq.legendre(x0_sq) == 1:
            x0 = fq.sqrt(x0_sq)
            root = (x0, fq.mul(a1, fq.inv(fq.add(x0, x0))))
            if tower.f2_sqr(root) == a:
                return root
    return None


def g1_points(group, count, start=1):
    """On-curve G1 points from the smallest abscissas ``>= start``
    (``p = 3 mod 4``).  With a cofactor almost all are outside the subgroup
    (BLS12-381: ~2^125), with cofactor 1 none is."""
    p = group.ops.fq.modulus
    found, x = [], start
    while len(found) < count:
        rhs = (pow(x, 3, p) + group.b) % p
        y = pow(rhs, (p + 1) // 4, p)
        if y * y % p == rhs:
            found.append(group.point(x, y))
        x += 1
    return found


def rogue_g1_point(group):
    """The first on-curve G1 point from ``x = 4`` on, outside the subgroup."""
    (pt,) = g1_points(group, 1, start=4)
    assert not ladder(group, pt)
    return pt


def cofactor_points(curve, count):
    """Affine on-curve twist points outside the order-``r`` subgroup: the
    cofactor is ~2^254 (~2^380), so every small ``x`` with a square
    right-hand side gives one."""
    t, g2 = curve.tower, curve.g2
    found = []
    c = 1
    while len(found) < count:
        x = (c, 1)
        y = f2_sqrt(t, t.f2_add(t.f2_mul(t.f2_sqr(x), x), g2.b))
        if y is not None:
            assert not ladder(g2, g2.point(x, y))
            found.append((x, y))
        c += 1
    return found


def point_of_order(seed, ell):
    """A point of prime order *ell* (a factor of the cofactor) under *seed*,
    or ``None`` when *seed* has no *ell*-part: clear everything but the
    *ell*-Sylow subgroup, then multiply by *ell* until the next step is O."""
    group = seed.group
    n = group.cofactor * group.order
    while n % ell == 0:
        n //= ell
    pt = ladder_mul(seed, n)
    if pt.is_infinity():
        return None
    while not (nxt := ladder_mul(pt, ell)).is_infinity():
        pt = nxt
    return pt
