"""The ``Fp2 / Fp6 / Fp12`` extension tower used by G2 and the pairing.

Both supported curves (BN254 and BLS12-381) use the standard tower

- ``Fp2  = Fp [u] / (u^2 - beta)``     with ``beta = -1``,
- ``Fp6  = Fp2[v] / (v^3 - xi)``       with ``xi = 9 + u`` (BN254) or
  ``1 + u`` (BLS12-381),
- ``Fp12 = Fp6[w] / (w^2 - v)``        so that ``w^6 = xi``.

Element types hold raw integers at the bottom.  The ``Fp2`` kernels on
:class:`TowerParams` are flat lazy-reduction arithmetic (docs/KERNELS.md) and
``Fp6``/``Fp12`` are built from them alone; each kernel reports to the tracer
the ``bigint_*`` primitives of the per-operation ``PrimeField`` formulation
it stands for — matching how VTune attributes pairing time to big-integer
kernels in the paper's Table IV.
"""

from __future__ import annotations

from repro.context import RUN

__all__ = ["TowerParams", "Fp2", "Fp6", "Fp12"]


class TowerParams:
    """Parameters and cached Frobenius constants for one curve's tower.

    Parameters
    ----------
    fq:
        The base :class:`~repro.fields.prime_field.PrimeField`.
    beta:
        The quadratic non-residue defining ``Fp2`` (``u^2 = beta``); must
        be ``-1`` (mod p), anything else raises ``ValueError``.
    xi:
        Pair ``(c0, c1)`` — the ``Fp2`` element defining ``Fp6``
        (``v^3 = xi``); also the sextic-twist factor.
    """

    def __init__(self, fq, beta, xi):
        p = fq.modulus
        if beta % p != p - 1:
            raise ValueError(f"{fq.name}: only beta = -1 is implemented, got {beta}")
        if (p - 1) % 6 != 0:
            raise ValueError(f"{fq.name}: tower requires p = 1 (mod 6)")
        self.fq = fq
        self.beta = p - 1
        self.xi = (xi[0] % p, xi[1] % p)
        # Hot-path copies for the flat kernels below.
        self._p = p
        self._mod = fq._mod
        self._add_tag, self._sub_tag = fq._add_tag, fq._sub_tag
        self._mul_tag, self._sqr_tag = fq._mul_tag, fq._sqr_tag
        # ``(g1, g2, gw)`` with ``g1 = xi^((p-1)/3)``, ``g2 = g1^2``,
        # ``gw = xi^((p-1)/6)``: the per-coordinate twists of the Frobenius
        # endomorphism in this tower basis.  Derived here, not on first use:
        # towers are built at import, so no tracer counts the one-off.
        gw = self.f2_pow(self.xi, (p - 1) // 6)
        g1 = self.f2_sqr(gw)
        self.frobenius_constants = (g1, self.f2_sqr(g1), gw)
        #: ``1 / xi``, for the same reason: an M-type twist's lines carry it.
        self.xi_inv = self.f2_inv(self.xi)

    # -- raw Fp2 kernels (tuples of ints) ----------------------------------------
    #
    # Exact integers are combined first and reduced once per output
    # component against ``fq._mod`` (an ``mpz`` under REPRO_BIGINT=gmpy2),
    # beta = -1 folded into a subtraction.  One tracer guard per kernel
    # reports the primitives of the per-operation ``PrimeField``
    # formulation it stands for — ``lincomb``'s rule.

    def _report_product(self, t):
        # A Karatsuba product with an explicit multiply by beta; a squaring
        # and a multiply by xi were that product too.
        t.op(self._mul_tag, 4)
        t.op(self._add_tag, 3)
        t.op(self._sub_tag, 2)

    def f2_add(self, a, b):
        t = RUN.tracer
        if t is not None:
            t.op(self._add_tag, 2)
        p = self._p
        c0 = a[0] + b[0]
        c1 = a[1] + b[1]
        return (c0 - p if c0 >= p else c0, c1 - p if c1 >= p else c1)

    def f2_sub(self, a, b):
        t = RUN.tracer
        if t is not None:
            t.op(self._sub_tag, 2)
        p = self._p
        c0 = a[0] - b[0]
        c1 = a[1] - b[1]
        return (c0 + p if c0 < 0 else c0, c1 + p if c1 < 0 else c1)

    def f2_neg(self, a):
        t = RUN.tracer
        if t is not None:
            t.op(self._add_tag, 2)  # a negation costs one subtract
        p = self._p
        return (p - a[0] if a[0] else 0, p - a[1] if a[1] else 0)

    def f2_conj(self, a):
        return (a[0], self.fq.neg(a[1]))

    def f2_mul(self, a, b):
        t = RUN.tracer
        if t is not None:
            self._report_product(t)
        a0, a1 = a
        b0, b1 = b
        m = self._mod
        t0 = a0 * b0
        t1 = a1 * b1
        return ((t0 - t1) % m, ((a0 + a1) * (b0 + b1) - t0 - t1) % m)

    def f2_sqr(self, a):
        t = RUN.tracer
        if t is not None:
            self._report_product(t)
        a0, a1 = a
        m = self._mod
        return ((a0 + a1) * (a0 - a1) % m, (a0 + a0) * a1 % m)

    def f2_scale(self, a, k):
        t = RUN.tracer
        if t is not None:
            t.op(self._mul_tag, 2)
        m = self._mod
        return (a[0] * k % m, a[1] * k % m)

    def f2_inv(self, a):
        t = RUN.tracer
        if t is not None:
            t.op(self._sqr_tag, 2)
            t.op(self._mul_tag, 1)
            t.op(self._sub_tag, 1)
        fq = self.fq
        a0, a1 = a
        # One reduction for the norm; the inversion-bound tail stays on
        # PrimeField (fq.inv keeps the zero check and the inversion metric).
        ninv = fq.inv((a0 * a0 + a1 * a1) % self._mod)
        return (fq.mul(a0, ninv), fq.neg(fq.mul(a1, ninv)))

    def f2_pow(self, a, e):
        acc = (1, 0)
        base = a
        while e > 0:
            if e & 1:
                acc = self.f2_mul(acc, base)
            base = self.f2_sqr(base)
            e >>= 1
        return acc

    def f2_mul_xi(self, a):
        """Multiply an Fp2 element by the non-residue xi (used by v^3 folds):
        two small-constant products per component."""
        t = RUN.tracer
        if t is not None:
            self._report_product(t)
        a0, a1 = a
        x0, x1 = self.xi
        m = self._mod
        return ((x0 * a0 - x1 * a1) % m, (x0 * a1 + x1 * a0) % m)

    # -- element constructors ------------------------------------------------------

    def fp2(self, c0, c1=0):
        return Fp2(self, c0 % self.fq.modulus, c1 % self.fq.modulus)

    def fp2_zero(self):
        return Fp2(self, 0, 0)

    def fp2_one(self):
        return Fp2(self, 1, 0)

    def fp6_zero(self):
        z = (0, 0)
        return Fp6(self, z, z, z)

    def fp6_one(self):
        return Fp6(self, (1, 0), (0, 0), (0, 0))

    def fp12_zero(self):
        z = (0, 0)
        return Fp12(self, (z, z, z), (z, z, z))

    def fp12_one(self):
        z = (0, 0)
        return Fp12(self, ((1, 0), z, z), (z, z, z))

    def __repr__(self):
        return f"TowerParams({self.fq.name}, xi={self.xi})"


class Fp2:
    """An element ``c0 + c1*u`` of the quadratic extension."""

    __slots__ = ("tower", "c")

    def __init__(self, tower, c0, c1):
        self.tower = tower
        self.c = (c0, c1)

    def __add__(self, other):
        return Fp2(self.tower, *self.tower.f2_add(self.c, other.c))

    def __sub__(self, other):
        return Fp2(self.tower, *self.tower.f2_sub(self.c, other.c))

    def __neg__(self):
        return Fp2(self.tower, *self.tower.f2_neg(self.c))

    def __mul__(self, other):
        if isinstance(other, int):
            return Fp2(self.tower, *self.tower.f2_scale(self.c, other % self.tower.fq.modulus))
        return Fp2(self.tower, *self.tower.f2_mul(self.c, other.c))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * other.inverse()

    def __pow__(self, e):
        if e < 0:
            return self.inverse() ** (-e)
        return Fp2(self.tower, *self.tower.f2_pow(self.c, e))

    def inverse(self):
        return Fp2(self.tower, *self.tower.f2_inv(self.c))

    def conjugate(self):
        """The Frobenius ``a^p`` (conjugation over Fp)."""
        return Fp2(self.tower, *self.tower.f2_conj(self.c))

    def square(self):
        return Fp2(self.tower, *self.tower.f2_sqr(self.c))

    def is_zero(self):
        return self.c == (0, 0)

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        return isinstance(other, Fp2) and other.c == self.c

    def __hash__(self):
        return hash(("Fp2", self.c))

    def __repr__(self):
        return f"Fp2({self.c[0]}, {self.c[1]})"


class Fp6:
    """An element ``a0 + a1*v + a2*v^2`` with coefficients in Fp2.

    Internally coefficients are raw ``(int, int)`` pairs to avoid three
    layers of wrapper objects on the pairing hot path.
    """

    __slots__ = ("tower", "a")

    def __init__(self, tower, a0, a1, a2):
        self.tower = tower
        self.a = (a0, a1, a2)

    def __add__(self, other):
        t = self.tower
        a, b = self.a, other.a
        return Fp6(t, t.f2_add(a[0], b[0]), t.f2_add(a[1], b[1]), t.f2_add(a[2], b[2]))

    def __sub__(self, other):
        t = self.tower
        a, b = self.a, other.a
        return Fp6(t, t.f2_sub(a[0], b[0]), t.f2_sub(a[1], b[1]), t.f2_sub(a[2], b[2]))

    def __neg__(self):
        t = self.tower
        a = self.a
        return Fp6(t, t.f2_neg(a[0]), t.f2_neg(a[1]), t.f2_neg(a[2]))

    def __mul__(self, other):
        t = self.tower
        a, b = self.a, other.a
        t00 = t.f2_mul(a[0], b[0])
        t11 = t.f2_mul(a[1], b[1])
        t22 = t.f2_mul(a[2], b[2])
        c0 = t.f2_add(t00, t.f2_mul_xi(t.f2_add(t.f2_mul(a[1], b[2]), t.f2_mul(a[2], b[1]))))
        c1 = t.f2_add(t.f2_add(t.f2_mul(a[0], b[1]), t.f2_mul(a[1], b[0])), t.f2_mul_xi(t22))
        c2 = t.f2_add(t.f2_add(t.f2_mul(a[0], b[2]), t11), t.f2_mul(a[2], b[0]))
        return Fp6(t, c0, c1, c2)

    def square(self):
        return self * self

    def mul_by_v(self):
        """Multiply by the tower generator ``v`` (cheap coefficient rotate)."""
        t = self.tower
        a = self.a
        return Fp6(t, t.f2_mul_xi(a[2]), a[0], a[1])

    def scale_f2(self, k):
        """Multiply every coefficient by the Fp2 scalar *k* (a raw pair)."""
        t = self.tower
        a = self.a
        return Fp6(t, t.f2_mul(a[0], k), t.f2_mul(a[1], k), t.f2_mul(a[2], k))

    def scale_fp(self, k):
        """Multiply every coefficient by the base-field integer *k*."""
        t = self.tower
        a = self.a
        return Fp6(t, t.f2_scale(a[0], k), t.f2_scale(a[1], k), t.f2_scale(a[2], k))

    def mul_by_01(self, l0, l1):
        """Multiply by the sparse element ``l0 + l1*v`` (raw Fp2 pairs):
        6 ``Fp2`` products where the dense product spends 9."""
        t = self.tower
        mul, add = t.f2_mul, t.f2_add
        a0, a1, a2 = self.a
        return Fp6(
            t,
            add(mul(a0, l0), t.f2_mul_xi(mul(a2, l1))),
            add(mul(a0, l1), mul(a1, l0)),
            add(mul(a1, l1), mul(a2, l0)),
        )

    def inverse(self):
        # Standard cubic-extension inversion via the adjugate.
        t = self.tower
        a0, a1, a2 = self.a
        A = t.f2_sub(t.f2_sqr(a0), t.f2_mul_xi(t.f2_mul(a1, a2)))
        B = t.f2_sub(t.f2_mul_xi(t.f2_sqr(a2)), t.f2_mul(a0, a1))
        C = t.f2_sub(t.f2_sqr(a1), t.f2_mul(a0, a2))
        F = t.f2_add(t.f2_mul(a0, A), t.f2_mul_xi(t.f2_add(t.f2_mul(a2, B), t.f2_mul(a1, C))))
        Finv = t.f2_inv(F)
        return Fp6(t, t.f2_mul(A, Finv), t.f2_mul(B, Finv), t.f2_mul(C, Finv))

    def frobenius(self):
        """``a^p`` in the Fp6 basis."""
        t = self.tower
        g1, g2, _gw = t.frobenius_constants
        a0, a1, a2 = self.a
        return Fp6(
            t,
            t.f2_conj(a0),
            t.f2_mul(t.f2_conj(a1), g1),
            t.f2_mul(t.f2_conj(a2), g2),
        )

    def is_zero(self):
        z = (0, 0)
        return self.a == (z, z, z)

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        return isinstance(other, Fp6) and other.a == self.a

    def __hash__(self):
        return hash(("Fp6", self.a))

    def __repr__(self):
        return f"Fp6{self.a}"


class Fp12:
    """An element ``c0 + c1*w`` with coefficients in Fp6 (``w^2 = v``).

    Coefficients are stored as raw triples of Fp2 pairs; :class:`Fp6` views
    are created on demand.
    """

    __slots__ = ("tower", "c0", "c1")

    def __init__(self, tower, c0, c1):
        self.tower = tower
        self.c0 = c0  # triple of pairs
        self.c1 = c1

    @classmethod
    def from_fp6(cls, lo, hi):
        """Build from two :class:`Fp6` halves."""
        return cls(lo.tower, lo.a, hi.a)

    def _lo(self):
        return Fp6(self.tower, *self.c0)

    def _hi(self):
        return Fp6(self.tower, *self.c1)

    def __add__(self, other):
        lo = self._lo() + other._lo()
        hi = self._hi() + other._hi()
        return Fp12(self.tower, lo.a, hi.a)

    def __sub__(self, other):
        lo = self._lo() - other._lo()
        hi = self._hi() - other._hi()
        return Fp12(self.tower, lo.a, hi.a)

    def __neg__(self):
        return Fp12(self.tower, (-self._lo()).a, (-self._hi()).a)

    def __mul__(self, other):
        # Karatsuba over the quadratic step: 3 Fp6 multiplications.
        a0, a1 = self._lo(), self._hi()
        b0, b1 = other._lo(), other._hi()
        t0 = a0 * b0
        t1 = a1 * b1
        lo = t0 + t1.mul_by_v()
        hi = (a0 + a1) * (b0 + b1) - t0 - t1
        return Fp12(self.tower, lo.a, hi.a)

    def square(self):
        # Complex squaring: 2 Fp6 multiplications.
        a0, a1 = self._lo(), self._hi()
        t = a0 * a1
        lo = (a0 + a1) * (a0 + a1.mul_by_v()) - t - t.mul_by_v()
        hi = t + t
        return Fp12(self.tower, lo.a, hi.a)

    def mul_by_line(self, s, l0, l1, k):
        """``self * (s + (l0 + l1*v) * v**k * w)`` — the sparse product of a
        Miller step, 12 ``Fp2`` products where the dense one spends 27.

        *s* is a base-field integer, *l0*/*l1* raw Fp2 pairs and *k* is 0 or
        1: a D-type twist's line fills the slots ``1, w, w^3`` (``k = 0``),
        an M-type twist's ``1, w^3, w^5`` (``k = 1``).
        """
        a0, a1 = self._lo(), self._hi()
        x = a0.mul_by_01(l0, l1)
        y = a1.mul_by_01(l0, l1).mul_by_v()          # w * w = v
        if k:
            x, y = x.mul_by_v(), y.mul_by_v()
        lo = a0.scale_fp(s) + y
        hi = a1.scale_fp(s) + x
        return Fp12(self.tower, lo.a, hi.a)

    def cyclotomic_square(self):
        """``self ** 2`` for an element of the cyclotomic subgroup
        (``self ** (p^4 - p^2 + 1) == 1``, e.g. anything raised to
        ``(p^6 - 1)(p^2 + 1)``) — Granger–Scott: 9 ``Fp2`` squarings where
        :meth:`square` spends 18 products.  Wrong for any other element.

        Over ``Fp4 = Fp2[y]``, ``y = w^3``, write ``self = A + B*w + C*w^2``
        with ``A = g0 + g3*y``, ``B = g1 + g4*y``, ``C = g2 + g5*y``
        (``g_i`` the coefficient of ``w^i``); then ``self ** 2`` is
        ``(3A^2 - 2A') + (3y*C^2 + 2B')*w + (3B^2 - 2C')*w^2`` with ``'`` the
        conjugation ``y -> -y``.
        """
        t = self.tower
        add, sub, sqr, mul_xi = t.f2_add, t.f2_sub, t.f2_sqr, t.f2_mul_xi
        g0, g2, g4 = self.c0
        g1, g3, g5 = self.c1

        def fp4_square(a, b):
            # (a + b*y)^2 with y^2 = xi
            aa, bb = sqr(a), sqr(b)
            return add(aa, mul_xi(bb)), sub(sub(sqr(add(a, b)), aa), bb)

        def minus(sq, g):     # 3*sq - 2*g
            d = sub(sq, g)
            return add(add(d, d), sq)

        def plus(sq, g):      # 3*sq + 2*g
            s = add(sq, g)
            return add(add(s, s), sq)

        a_lo, a_hi = fp4_square(g0, g3)
        b_lo, b_hi = fp4_square(g1, g4)
        c_lo, c_hi = fp4_square(g2, g5)
        return Fp12(
            t,
            (minus(a_lo, g0), minus(b_lo, g2), minus(c_lo, g4)),
            (plus(mul_xi(c_hi), g1), plus(a_hi, g3), plus(b_hi, g5)),
        )

    def __pow__(self, e):
        if e < 0:
            return self.inverse() ** (-e)
        acc = self.tower.fp12_one()
        base = self
        while e > 0:
            if e & 1:
                acc = acc * base
            base = base.square()
            e >>= 1
        return acc

    def inverse(self):
        a0, a1 = self._lo(), self._hi()
        norm = a0 * a0 - (a1 * a1).mul_by_v()
        ninv = norm.inverse()
        return Fp12(self.tower, (a0 * ninv).a, (-(a1 * ninv)).a)

    def conjugate(self):
        """``f^(p^6)`` — negation of the odd half; the cheap part of the
        final exponentiation."""
        return Fp12(self.tower, self.c0, (-self._hi()).a)

    def frobenius(self):
        """``f^p`` in the tower basis."""
        t = self.tower
        _g1, _g2, gw = t.frobenius_constants
        lo = self._lo().frobenius()
        hi = self._hi().frobenius().scale_f2(gw)
        return Fp12(t, lo.a, hi.a)

    def is_one(self):
        z = (0, 0)
        return self.c0 == ((1, 0), z, z) and self.c1 == (z, z, z)

    def is_zero(self):
        z = (0, 0)
        return self.c0 == (z, z, z) and self.c1 == (z, z, z)

    def __eq__(self, other):
        return isinstance(other, Fp12) and other.c0 == self.c0 and other.c1 == self.c1

    def __hash__(self):
        return hash(("Fp12", self.c0, self.c1))

    def __repr__(self):
        return f"Fp12(c0={self.c0}, c1={self.c1})"
