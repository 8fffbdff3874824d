"""Short-Weierstrass group arithmetic in Jacobian coordinates.

One generic implementation serves both G1 (coordinates are plain integers in
``Fq``) and G2 (coordinates are raw ``(int, int)`` pairs in ``Fq2``): the
group is parameterized by a small *coordinate-ops adapter* so the hot MSM
path over G1 runs on bare integers while G2 reuses the identical formulas.

Both supported curves have ``a = 0`` (``y^2 = x^3 + b``), which the doubling
formula exploits.  Formulas are the standard ``dbl-2009-l`` /
``add-2007-bl`` / ``madd-2007-bl`` from the EFD.

Group operations additionally report ``ec_dbl_<tag>`` / ``ec_add_<tag>``
primitives to the tracer: the cost model charges them the loop/branch glue a
real curve library spends around its field calls, which is where much of the
control-flow share in the paper's Table V comes from.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import zip_longest
from math import gcd

from repro.context import RUN, Tally, charge, scoped, untraced
from repro.curves.endomorphism import decompose_scalar

__all__ = ["FpOps", "Fp2Ops", "Group", "Point", "CurveSpec"]


def _wnaf(k, width):
    """Width-*width* non-adjacent form of ``k >= 0``, least significant digit
    first: odd digits of magnitude below ``2^(width-1)``, each followed by at
    least ``width - 1`` zeros (width 2 is the plain NAF)."""
    full, half, digits = 1 << width, 1 << (width - 1), []
    while k:
        d = 0
        if k & 1:
            d = k & (full - 1)
            if d >= half:
                d -= full
            k -= d
        digits.append(d)
        k >>= 1
    return digits


class FpOps:
    """Coordinate adapter for G1: opaque values are reduced Python ints.

    ``add/sub/neg/mul/sqr/inv`` are the :class:`PrimeField` kernels
    themselves, bound once here, so a coordinate operation in the group law
    is a single Python call; a batch-affine wave is one call in all
    (:meth:`add_wave`).
    """

    __slots__ = ("fq", "tag", "zero", "one", "coord_bytes",
                 "add", "sub", "neg", "mul", "sqr", "inv")

    def __init__(self, fq, tag):
        self.fq = fq
        self.tag = tag
        self.zero = 0
        self.one = 1
        #: Serialized width of one coordinate.
        self.coord_bytes = fq.nbytes
        self.add, self.sub, self.neg = fq.add, fq.sub, fq.neg
        self.mul, self.sqr, self.inv = fq.mul, fq.sqr, fq.inv

    def is_zero(self, a):
        return a == 0

    def coerce(self, v):
        """Accept an int (or int-like) coordinate and reduce it."""
        return int(v) % self.fq.modulus

    def add_wave(self, ps, qs):
        """``(sums, inverted)``: every ``ps[i] + qs[i]`` of affine ``(x, y)``
        points (``None`` is infinity) behind one shared inversion, and how
        many sums took a slope — ``0`` when no inversion ran.

        Fused (docs/KERNELS.md, "Batch-affine waves"): slope numerators and
        denominators stay unreduced differences, and Montgomery's prefix
        chain, its back-substitution and the addition formulas are inline
        ``a * b % m`` instead of a Python call per field operation.
        ``P + P`` takes the tangent; ``P + (-P)`` and ``2 * (x, 0)`` are
        infinity, so no denominator is zero.
        """
        fq = self.fq
        m = fq.modulus
        out = [None] * len(ps)
        work = []  # (slot, slope numerator, denominator), both unreduced
        for i, (p, q) in enumerate(zip(ps, qs)):
            if p is None or q is None:
                out[i] = q if p is None else p
            elif p[0] != q[0]:
                work.append((i, q[1] - p[1], q[0] - p[0]))
            elif p[1] == q[1] and p[1]:
                # doubling: lambda = 3*x^2 / (2*y)  (a = 0 curves)
                work.append((i, 3 * p[0] * p[0], 2 * p[1]))
        if not work:
            return out, 0
        n = len(work)
        t = RUN.tracer
        if t is not None:
            # lincomb's rule: the primitives of the per-operation wave (two
            # subtractions a chord, a squaring and three additions a
            # tangent, 3 products a slot to invert, 2 products, a squaring
            # and 4 subtractions a slot to finish); fq.inv reports itself.
            dbl = sum(ps[i][0] == qs[i][0] for i, _num, _den in work)
            t.op(fq._mul_tag, 5 * n)
            t.op(fq._sqr_tag, n + dbl)
            t.op(fq._sub_tag, 6 * n - 2 * dbl)
            if dbl:
                t.op(fq._add_tag, 3 * dbl)
        prefix = [1] * n
        acc = 1
        for j, (_i, _num, den) in enumerate(work):
            prefix[j] = acc
            acc = acc * den % m
        inv = fq.inv(acc)
        for j in range(n - 1, -1, -1):
            i, num, den = work[j]
            (x1, y1), x2 = ps[i], qs[i][0]
            lam = num * (inv * prefix[j] % m) % m
            inv = inv * den % m
            x3 = (lam * lam - x1 - x2) % m
            out[i] = (x3, (lam * (x1 - x3) - y1) % m)
        return out, n


class Fp2Ops:
    """Coordinate adapter for G2: opaque values are raw ``(c0, c1)`` pairs.

    ``add/sub/neg/mul/sqr/inv`` are the tower's flat ``f2_*`` kernels
    themselves, bound once here, and :meth:`add_wave` is the fused
    batch-affine wave (see :class:`FpOps`).
    """

    __slots__ = ("tower", "tag", "zero", "one", "coord_bytes",
                 "add", "sub", "neg", "mul", "sqr", "inv")

    def __init__(self, tower, tag):
        self.tower = tower
        self.tag = tag
        self.zero = (0, 0)
        self.one = (1, 0)
        #: Serialized width of one coordinate (two base-field elements).
        self.coord_bytes = 2 * tower.fq.nbytes
        self.add, self.sub, self.neg = tower.f2_add, tower.f2_sub, tower.f2_neg
        self.mul, self.sqr, self.inv = tower.f2_mul, tower.f2_sqr, tower.f2_inv

    def is_zero(self, a):
        return a == (0, 0)

    def coerce(self, v):
        p = self.tower.fq.modulus
        c0, c1 = v
        return (int(c0) % p, int(c1) % p)

    def add_wave(self, ps, qs):
        """:meth:`FpOps.add_wave` over ``Fp2`` pairs: Karatsuba inline, and
        the wave inverts through norms, ``1/d = conj(d) / (d0^2 + d1^2)``
        (``u^2 = -1``, the only tower implemented), so the shared inversion
        is one ``Fp`` batch inversion of the denominators' norms.
        """
        fq = self.tower.fq
        m = fq.modulus
        out = [None] * len(ps)
        work = []  # (slot, slope numerator, denominator), both unreduced
        for i, (p, q) in enumerate(zip(ps, qs)):
            if p is None or q is None:
                out[i] = q if p is None else p
            elif p[0] != q[0]:
                (px0, px1), (py0, py1) = p
                (qx0, qx1), (qy0, qy1) = q
                work.append((i, (qy0 - py0, qy1 - py1), (qx0 - px0, qx1 - px1)))
            elif p[1] == q[1] and p[1] != (0, 0):
                # doubling: lambda = 3*x^2 / (2*y)  (a = 0 curves)
                (x0, x1), (y0, y1) = p
                work.append((i, (3 * (x0 + x1) * (x0 - x1), 6 * x0 * x1), (2 * y0, 2 * y1)))
        if not work:
            return out, 0
        n = len(work)
        t = RUN.tracer
        if t is not None:
            # lincomb's rule: the per-operation wave's f2 kernels — 6
            # products a slot and one a tangent (4 mul, 3 add, 2 sub each),
            # 2 f2_sub a chord and 3 f2_add a tangent, 4 f2_sub a slot to
            # finish, and f2_inv's norm; fq.inv reports itself.
            dbl = sum(ps[i][0] == qs[i][0] for i, _num, _den in work)
            products = 6 * n + dbl
            t.op(fq._mul_tag, 4 * products + 3)
            t.op(fq._add_tag, 3 * products + 6 * dbl + 1)
            t.op(fq._sub_tag, 2 * products + 12 * n - 4 * dbl + 1)
            t.op(fq._sqr_tag, 2)
        norms, prefix = [1] * n, [1] * n
        acc = 1
        for j, (_i, _num, (d0, d1)) in enumerate(work):
            prefix[j] = acc
            norms[j] = norm = (d0 * d0 + d1 * d1) % m
            acc = acc * norm % m
        inv = fq.inv(acc)
        for j in range(n - 1, -1, -1):
            i, (n0, n1), (d0, d1) = work[j]
            ((x10, x11), (y10, y11)), (x20, x21) = ps[i], qs[i][0]
            ninv = inv * prefix[j] % m
            inv = inv * norms[j] % m
            # lambda = num * conj(d) / norm(d), Karatsuba
            t0, t1 = n0 * d0, n1 * d1
            l0 = (t0 + t1) % m * ninv % m
            l1 = ((n0 + n1) * (d0 - d1) - t0 + t1) % m * ninv % m
            x30 = ((l0 + l1) * (l0 - l1) - x10 - x20) % m
            x31 = (2 * l0 * l1 - x11 - x21) % m
            e0, e1 = x10 - x30, x11 - x31
            t0, t1 = l0 * e0, l1 * e1
            y3 = ((t0 - t1 - y10) % m, ((l0 + l1) * (e0 + e1) - t0 - t1 - y11) % m)
            out[i] = ((x30, x31), y3)
        return out, n


class Group:
    """One elliptic-curve group ``y^2 = x^3 + b`` over a coordinate field.

    Parameters
    ----------
    name:
        Label such as ``"bn128.G1"``.
    ops:
        Coordinate adapter (:class:`FpOps` or :class:`Fp2Ops`).
    b:
        Curve constant, in the adapter's raw representation.
    generator:
        Affine ``(x, y)`` of the standard subgroup generator.
    order:
        Prime order ``r`` of the subgroup.
    cofactor:
        Curve cofactor: ``#E = cofactor * order``.
    endomorphisms:
        Candidate :class:`~repro.curves.endomorphism.Endomorphism` records
        for the membership test; the first that passes :meth:`_admit`
        becomes ``self.endomorphism`` (``None`` without candidates), and
        ``ValueError`` if none does.
    splits:
        Candidate GLV split records (each with a lattice ``basis``); the
        first that is ``[eigen]`` on the generator becomes ``self.split``,
        what ``Point.__mul__`` and :func:`repro.msm.glv.msm_glv` decompose
        scalars with (``None`` without candidates).
    """

    def __init__(self, name, ops, b, generator, order, cofactor=1, endomorphisms=(),
                 splits=()):
        self.name = name
        self.ops = ops
        self.b = b
        self.order = order
        self.cofactor = cofactor
        self._dbl_tag = f"ec_dbl_{ops.tag}"
        self._add_tag = f"ec_add_{ops.tag}"
        gx, gy = generator
        self.generator = self.point(gx, gy)
        self.endomorphism = self.split = None  # what _admit's own multiplications see
        self.endomorphism = endo = self._admit(endomorphisms)
        self.split = self._admit(splits, membership=False)
        #: What :meth:`in_subgroup` walks, most significant digit first: the
        #: non-adjacent form of ``|eigen|``, or of ``order`` with no record.
        self._member_naf = _wnaf(abs(endo.eigen) if endo else order, 2)[::-1]

    def __repr__(self):
        return f"Group({self.name})"

    # -- construction -----------------------------------------------------------

    def infinity(self):
        """The identity element."""
        return Point(self, self.ops.one, self.ops.one, self.ops.zero)

    def point(self, x, y):
        """Build a point from affine coordinates, validating the curve equation."""
        ops = self.ops
        x, y = ops.coerce(x), ops.coerce(y)
        if not self.on_curve(x, y):
            raise ValueError(f"{self.name}: ({x!r}, {y!r}) is not on the curve")
        return Point(self, x, y, ops.one)

    def point_unchecked(self, x, y):
        """Build a point from affine coordinates without the curve check
        (used by kernels that only handle vetted points)."""
        return Point(self, x, y, self.ops.one)

    def on_curve(self, x, y):
        """Check ``y^2 == x^3 + b`` for affine coordinates."""
        ops = self.ops
        lhs = ops.sqr(y)
        rhs = ops.add(ops.mul(ops.sqr(x), x), self.b)
        return lhs == rhs

    def random_point(self, rng):
        """A uniform non-identity subgroup element (``k * G`` for random k)."""
        k = rng.randrange(1, self.order)
        return self.generator * k

    @cached_property
    def cost(self):
        """What one ``double``, ``add`` (``__add__``), ``add_doubling``
        (``__add__`` of equal points), ``add_affine`` and inverting
        ``to_affine`` report to a tracer: what charged sites charge.  Read on
        points off the curve whose calls take every generic branch over any
        odd ``p``: the counts depend on the branch, not on the values."""
        one = self.ops.one
        with scoped("tracer", None):
            two = self.ops.add(one, one)
        a, b = Point(self, one, one, one), Point(self, two, one, two)
        calls = {"double": b.double, "add": lambda: a + b, "add_doubling": lambda: a + a,
                 "add_affine": lambda: b.add_affine(one, one), "to_affine": b.to_affine}
        costs = {}
        with scoped("metrics", None):
            for name, call in calls.items():
                with scoped("tracer", Tally()) as costs[name]:
                    call()
        return costs

    def _admit(self, candidates, membership=True):
        """The first of *candidates* that is ``[eigen]`` on the generator —
        and, for *membership*, a sound membership test.

        For ``sigma`` with ``sigma^2 + c*sigma + d = 0`` on the whole curve
        and ``sigma = [a]`` on the subgroup: if ``a^2 + c*a + d = m * r`` and
        ``gcd(m, cofactor) = 1`` then ``sigma(P) = [a]P  <=>  [r]P = O``
        (``[m*r]P = O`` and ``[cofactor*r]P = O`` leave ``ord P | r``; the
        converse is the check on the generator).  A split needs the
        generator check alone: the subgroup is cyclic, so ``sigma = [a]`` on
        the generator is ``sigma = [a]`` on every element.
        """
        gen = self.generator
        for endo in candidates:
            (c, d), a = endo.char, endo.eigen
            m, rem = divmod(a * a + c * a + d, self.order)
            image = gen * abs(a)  # gen * a would widen a negative a to a + r
            if a < 0:
                image = -image
            if ((not membership or rem == 0 and gcd(m, self.cofactor) == 1)
                    and endo.map(*gen.to_affine()) == image.to_affine()):
                return endo
        if candidates:
            what = ("endomorphism record passes its identity, cofactor and generator checks"
                    if membership else "split record passes the generator check")
            raise ValueError(f"{self.name}: no {what}")
        return None

    def in_subgroup(self, pt):
        """True iff ``[r]pt`` is the identity, *pt* a point of the curve.

        With cofactor 1 the curve has exactly ``r`` points and there is
        nothing to compute.  Otherwise one unreduced ladder (``Point.__mul__``
        reduces its scalar mod ``order``) over ``_member_naf``, adding
        ``+-pt`` in affine coordinates: ``[|a|]pt`` against ``+-sigma(pt)``
        (:meth:`_admit` has the proof), or ``[r]pt`` against the identity
        on a group without a record.
        """
        if pt.is_infinity() or self.cofactor == 1:
            return True
        x, y = pt.to_affine()
        minus_y = self.ops.neg(y)
        acc = self.infinity()
        for digit in self._member_naf:
            acc = acc.double()
            if digit:
                acc = acc.add_affine(x, y if digit > 0 else minus_y)
        endo = self.endomorphism
        if endo is None:
            return acc.is_infinity()
        return acc == Point(self, *endo.map(x, minus_y if endo.eigen < 0 else y), self.ops.one)


class Point:
    """A Jacobian-coordinate point ``(X : Y : Z)``; ``Z == 0`` is infinity."""

    __slots__ = ("group", "X", "Y", "Z")

    def __init__(self, group, X, Y, Z):
        self.group = group
        self.X = X
        self.Y = Y
        self.Z = Z

    # -- predicates ---------------------------------------------------------------

    def is_infinity(self):
        return self.group.ops.is_zero(self.Z)

    def __bool__(self):
        return not self.is_infinity()

    def __eq__(self, other):
        if not isinstance(other, Point) or other.group is not self.group:
            return NotImplemented
        ops = self.group.ops
        if self.is_infinity() or other.is_infinity():
            return self.is_infinity() and other.is_infinity()
        # Cross-multiply to compare without inversions:
        #   X1 / Z1^2 == X2 / Z2^2   and   Y1 / Z1^3 == Y2 / Z2^3
        z1z1, z2z2 = ops.sqr(self.Z), ops.sqr(other.Z)
        if ops.mul(self.X, z2z2) != ops.mul(other.X, z1z1):
            return False
        z1c, z2c = ops.mul(z1z1, self.Z), ops.mul(z2z2, other.Z)
        return ops.mul(self.Y, z2c) == ops.mul(other.Y, z1c)

    def __hash__(self):
        aff = self.to_affine()
        return hash((self.group.name, aff))

    # -- group law -------------------------------------------------------------------

    def double(self):
        """Point doubling (``dbl-2009-l``, a = 0)."""
        ops = self.group.ops
        if self.is_infinity() or ops.is_zero(self.Y):
            return self.group.infinity()
        t = RUN.tracer
        if t is not None:
            t.op(self.group._dbl_tag)
        X, Y, Z = self.X, self.Y, self.Z
        A = ops.sqr(X)
        B = ops.sqr(Y)
        C = ops.sqr(B)
        D = ops.sub(ops.sub(ops.sqr(ops.add(X, B)), A), C)
        D = ops.add(D, D)
        E = ops.add(ops.add(A, A), A)
        F = ops.sqr(E)
        X3 = ops.sub(F, ops.add(D, D))
        C8 = ops.add(C, C)
        C8 = ops.add(C8, C8)
        C8 = ops.add(C8, C8)
        Y3 = ops.sub(ops.mul(E, ops.sub(D, X3)), C8)
        YZ = ops.mul(Y, Z)
        Z3 = ops.add(YZ, YZ)
        return Point(self.group, X3, Y3, Z3)

    def __add__(self, other):
        """General Jacobian addition (``add-2007-bl``)."""
        if not isinstance(other, Point) or other.group is not self.group:
            return NotImplemented
        ops = self.group.ops
        if self.is_infinity():
            return other
        if other.is_infinity():
            return self
        t = RUN.tracer
        if t is not None:
            t.op(self.group._add_tag)
        X1, Y1, Z1 = self.X, self.Y, self.Z
        X2, Y2, Z2 = other.X, other.Y, other.Z
        Z1Z1 = ops.sqr(Z1)
        Z2Z2 = ops.sqr(Z2)
        U1 = ops.mul(X1, Z2Z2)
        U2 = ops.mul(X2, Z1Z1)
        S1 = ops.mul(ops.mul(Y1, Z2), Z2Z2)
        S2 = ops.mul(ops.mul(Y2, Z1), Z1Z1)
        H = ops.sub(U2, U1)
        rr = ops.sub(S2, S1)
        if ops.is_zero(H):
            if ops.is_zero(rr):
                return self.double()
            return self.group.infinity()
        rr = ops.add(rr, rr)
        I = ops.sqr(ops.add(H, H))
        J = ops.mul(H, I)
        V = ops.mul(U1, I)
        X3 = ops.sub(ops.sub(ops.sqr(rr), J), ops.add(V, V))
        S1J = ops.mul(S1, J)
        Y3 = ops.sub(ops.mul(rr, ops.sub(V, X3)), ops.add(S1J, S1J))
        Z3 = ops.mul(ops.sub(ops.sub(ops.sqr(ops.add(Z1, Z2)), Z1Z1), Z2Z2), H)
        return Point(self.group, X3, Y3, Z3)

    def add_affine(self, x2, y2):
        """Mixed addition with an affine point (``madd-2007-bl``) — the MSM
        hot path, one field multiplication cheaper than the general add."""
        ops = self.group.ops
        if self.is_infinity():
            return Point(self.group, x2, y2, ops.one)
        t = RUN.tracer
        if t is not None:
            t.op(self.group._add_tag)
        X1, Y1, Z1 = self.X, self.Y, self.Z
        Z1Z1 = ops.sqr(Z1)
        U2 = ops.mul(x2, Z1Z1)
        S2 = ops.mul(ops.mul(y2, Z1), Z1Z1)
        H = ops.sub(U2, X1)
        rr = ops.sub(S2, Y1)
        if ops.is_zero(H):
            if ops.is_zero(rr):
                return self.double()
            return self.group.infinity()
        rr = ops.add(rr, rr)
        HH = ops.sqr(H)
        I = ops.add(HH, HH)
        I = ops.add(I, I)
        J = ops.mul(H, I)
        V = ops.mul(X1, I)
        X3 = ops.sub(ops.sub(ops.sqr(rr), J), ops.add(V, V))
        YJ = ops.mul(Y1, J)
        Y3 = ops.sub(ops.mul(rr, ops.sub(V, X3)), ops.add(YJ, YJ))
        Z3 = ops.sub(ops.sub(ops.sqr(ops.add(Z1, H)), Z1Z1), HH)
        return Point(self.group, X3, Y3, Z3)

    def __neg__(self):
        if self.is_infinity():
            return self
        return Point(self.group, self.X, self.group.ops.neg(self.Y), self.Z)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, k):
        """``[k mod r]self``, *self* in the order-``r`` subgroup, by
        :meth:`_mul_wnaf`; a traced call is charged double-and-add
        (docs/KERNELS.md, "Charging a reference")."""
        if not isinstance(k, int):
            return NotImplemented
        group = self.group
        k %= group.order
        if k == 0 or self.is_infinity():
            return group.infinity()
        acc = untraced(self._mul_wnaf, k)
        t = RUN.tracer
        if t is not None:
            self.charge_mul(t, k)
        return acc

    def charge_mul(self, t, k):
        """Charge *t* double-and-add of ``0 < k < r`` with general additions:
        ``bits(k) - 1`` doublings, ``popcount(k) - 1`` additions."""
        cost = self.group.cost
        charge(t, cost["double"], k.bit_length() - 1)
        charge(t, cost["add"], bin(k).count("1") - 1)

    __rmul__ = __mul__

    def _mul_wnaf(self, k):
        """``[k]self`` by width-4 wNAF over the odd multiples ``1, 3, 5, 7``,
        or by double-and-add when one of them is the identity (order 3, 5
        or 7: toy groups only).

        One shared inversion (Montgomery's trick) makes the table affine, so
        every addition is mixed.  Where the group has a split record,
        ``k`` splits into two half-width streams walked over the table and
        its image on one doubling chain.
        """
        group = self.group
        ops = group.ops
        mul, neg = ops.mul, ops.neg
        twice = self.double()
        odd = [self]
        for _ in range(3):
            odd.append(odd[-1] + twice)
        if any(pt.is_infinity() for pt in odd):
            acc = group.infinity()
            for bit in bin(k)[2:]:
                acc = acc.double()
                if bit == "1":
                    acc = acc + self
            return acc
        prefix = [ops.one]
        for pt in odd:
            prefix.append(mul(prefix[-1], pt.Z))
        inv = ops.inv(prefix[-1])
        table = [None] * 4
        for i in (3, 2, 1, 0):
            pt = odd[i]
            zinv, inv = mul(inv, prefix[i]), mul(inv, pt.Z)
            zinv2 = ops.sqr(zinv)
            table[i] = (mul(pt.X, zinv2), mul(pt.Y, mul(zinv2, zinv)))
        split = group.split
        if split is not None:
            k1, k2 = decompose_scalar(split.basis, group.order, k)
            halves = [(k1, table), (k2, [split.map(x, y) for x, y in table])]
        else:
            halves = [(k, table)]
        streams, tables = [], []
        for half, tab in halves:
            if half < 0:
                tab = [(x, neg(y)) for x, y in tab]
            streams.append(_wnaf(abs(half), 4))
            # digit d (odd, |d| < 8) selects entry d >> 1: 0..3, or -1..-4.
            tables.append(tab + [(x, neg(y)) for x, y in reversed(tab)])
        acc = group.infinity()
        for digits in reversed(list(zip_longest(*streams, fillvalue=0))):
            acc = acc.double()
            for d, tab in zip(digits, tables):
                if d:
                    acc = acc.add_affine(*tab[d >> 1])
        return acc

    # -- coordinates --------------------------------------------------------------------

    def to_affine(self):
        """Return affine ``(x, y)`` raw coordinates, or ``None`` at infinity;
        a traced call at ``Z == 1`` is charged the inversion all the same
        (modeled stages count one per serialized point)."""
        if self.is_infinity():
            return None
        ops = self.group.ops
        if self.Z == ops.one:
            t = RUN.tracer
            if t is not None:
                self.charge_to_affine(t)
            return (self.X, self.Y)
        zinv = ops.inv(self.Z)
        zinv2 = ops.sqr(zinv)
        x = ops.mul(self.X, zinv2)
        y = ops.mul(self.Y, ops.mul(zinv2, zinv))
        return (x, y)

    def charge_to_affine(self, t):
        """Charge *t* one inverting conversion."""
        charge(t, self.group.cost["to_affine"])

    def normalize(self):
        """Return the same point with ``Z == 1`` (or infinity unchanged)."""
        aff = self.to_affine()
        if aff is None:
            return self.group.infinity()
        return Point(self.group, aff[0], aff[1], self.group.ops.one)

    def __repr__(self):
        aff = self.to_affine()
        if aff is None:
            return f"Point({self.group.name}, infinity)"
        return f"Point({self.group.name}, x={aff[0]!r}, y={aff[1]!r})"


@dataclass(frozen=True)
class CurveSpec:
    """Everything the protocol stack needs to know about one pairing curve."""

    name: str
    family: str  # "bn" or "bls"
    fq: object
    fr: object
    tower: object
    g1: Group
    g2: Group
    #: BN: the ate loop count 6u+2.  BLS: |x| (with ``x_negative`` set).
    ate_loop: int
    x_negative: bool = False
    #: Curve family parameter (u for BN, x for BLS): ``p``, ``r`` and
    #: ``ate_loop`` are its family polynomials, and :class:`PairingEngine`
    #: exponentiates by it in the hard part of the final exponentiation.
    parameter: int = 0

    def __repr__(self):
        return f"CurveSpec({self.name})"
