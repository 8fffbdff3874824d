"""The ``Fp2 / Fp6 / Fp12`` extension tower used by G2 and the pairing.

Both supported curves (BN254 and BLS12-381) use the standard tower

- ``Fp2  = Fp [u] / (u^2 - beta)``     with ``beta = -1``,
- ``Fp6  = Fp2[v] / (v^3 - xi)``       with ``xi = 9 + u`` (BN254) or
  ``1 + u`` (BLS12-381),
- ``Fp12 = Fp6[w] / (w^2 - v)``        so that ``w^6 = xi``.

An ``Fp2`` element is a raw ``(c0, c1)`` pair of integers, with no type of
its own.  The ``f2_*`` kernels on :class:`TowerParams` are flat
lazy-reduction arithmetic on those pairs (docs/KERNELS.md) and ``Fp6`` is
built from them; the pairing's hot ``Fp12`` operations (product, squaring,
sparse line product, cyclotomic squaring) are each one fused function over
the twelve integers.  Every kernel reports to the tracer the ``bigint_*``
primitives of the per-operation formulation it stands for — matching how
VTune attributes pairing time to big-integer kernels in the paper's
Table IV.
"""

from __future__ import annotations

from repro.context import RUN

__all__ = ["TowerParams", "Fp6", "Fp12"]


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
        self._mod = fq.modulus
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
    # component against ``fq.modulus``, beta = -1 folded into a
    # subtraction.  One tracer guard per kernel reports the primitives of
    # the per-operation ``PrimeField`` formulation it stands for —
    # ``lincomb``'s rule.

    def _report(self, t, products, adds=0, subs=0, scales=0):
        # The primitives of *products* ``f2_mul`` (a Karatsuba product with
        # an explicit multiply by beta; a squaring and a multiply by xi were
        # that product too), *adds* ``f2_add``, *subs* ``f2_sub`` and
        # *scales* ``f2_scale`` calls.
        t.op(self._mul_tag, 4 * products + 2 * scales)
        t.op(self._add_tag, 3 * products + 2 * adds)
        t.op(self._sub_tag, 2 * products + 2 * subs)

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
            self._report(t, 1)
        a0, a1 = a
        b0, b1 = b
        m = self._mod
        t0 = a0 * b0
        t1 = a1 * b1
        return ((t0 - t1) % m, ((a0 + a1) * (b0 + b1) - t0 - t1) % m)

    def f2_sqr(self, a):
        t = RUN.tracer
        if t is not None:
            self._report(t, 1)
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
        if e < 0:
            raise ValueError(f"f2_pow expects a non-negative exponent, got {e}")
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
            self._report(t, 1)
        a0, a1 = a
        x0, x1 = self.xi
        m = self._mod
        return ((x0 * a0 - x1 * a1) % m, (x0 * a1 + x1 * a0) % m)

    def fp12_one(self):
        z = (0, 0)
        return Fp12(self, ((1, 0), z, z), (z, z, z))

    def __repr__(self):
        return f"TowerParams({self.fq.name}, xi={self.xi})"


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

    def _lo(self):
        return Fp6(self.tower, *self.c0)

    def _hi(self):
        return Fp6(self.tower, *self.c1)

    # -- fused kernels ---------------------------------------------------------
    #
    # The hot operations of the pairing, each one function over the twelve
    # integers: every ``Fp2`` product an exact Karatsuba integer pair, the
    # ``Fp6``/``Fp12`` formulas combined on those, and one ``% m`` a
    # coefficient of the result (``m = tower._mod``).  One tracer guard per
    # kernel reports the primitives of the per-operation formulation it
    # replaces (``tests/oracle.py``), counted in ``f2_*`` calls —
    # ``lincomb``'s rule.
    # In an Fp6 product ``(P0 + P1 v + P2 v^2)(Q0 + Q1 v + Q2 v^2)`` (Karatsuba:
    # ``P0 Q0``, ``P1 Q1``, ``P2 Q2`` and three products of sums) the pair
    # ``vk0, vk1`` holds ``Pk Qk``, ``s, u`` the two integer products of the
    # next ``Fp2`` product and ``y0, y1`` / ``z0, z1`` its sums of ``P`` and
    # of ``Q`` coefficients.

    def __mul__(self, other):
        """Karatsuba at both steps: three ``Fp6`` products of six ``Fp2``
        products each."""
        tower = self.tower
        t = RUN.tracer
        if t is not None:
            # 3 Fp6 products (11 f2 products and 6 additions each), a multiply
            # by v, then 3 additions and 2 subtractions of Fp6 elements.
            tower._report(t, 34, 27, 6)
        m = tower._mod
        x0, x1 = tower.xi
        (a0, a1), (a2, a3), (a4, a5) = self.c0
        (a6, a7), (a8, a9), (a10, a11) = self.c1
        (b0, b1), (b2, b3), (b4, b5) = other.c0
        (b6, b7), (b8, b9), (b10, b11) = other.c1
        # f = lo * lo'
        s, u = a0 * b0, a1 * b1
        v00, v01 = s - u, (a0 + a1) * (b0 + b1) - s - u
        s, u = a2 * b2, a3 * b3
        v10, v11 = s - u, (a2 + a3) * (b2 + b3) - s - u
        s, u = a4 * b4, a5 * b5
        v20, v21 = s - u, (a4 + a5) * (b4 + b5) - s - u
        y0, z0 = a2 + a4, b2 + b4
        y1, z1 = a3 + a5, b3 + b5
        s, u = y0 * z0, y1 * z1
        e0, e1 = s - u - v10 - v20, (y0 + y1) * (z0 + z1) - s - u - v11 - v21
        f0, f1 = v00 + x0 * e0 - x1 * e1, v01 + x0 * e1 + x1 * e0
        y0, z0 = a0 + a2, b0 + b2
        y1, z1 = a1 + a3, b1 + b3
        s, u = y0 * z0, y1 * z1
        f2 = s - u - v00 - v10 + x0 * v20 - x1 * v21
        f3 = (y0 + y1) * (z0 + z1) - s - u - v01 - v11 + x0 * v21 + x1 * v20
        y0, z0 = a0 + a4, b0 + b4
        # g = hi * hi'
        y1, z1 = a1 + a5, b1 + b5
        s, u = y0 * z0, y1 * z1
        f4, f5 = s - u - v00 - v20 + v10, (y0 + y1) * (z0 + z1) - s - u - v01 - v21 + v11
        s, u = a6 * b6, a7 * b7
        v00, v01 = s - u, (a6 + a7) * (b6 + b7) - s - u
        s, u = a8 * b8, a9 * b9
        v10, v11 = s - u, (a8 + a9) * (b8 + b9) - s - u
        s, u = a10 * b10, a11 * b11
        v20, v21 = s - u, (a10 + a11) * (b10 + b11) - s - u
        y0, z0 = a8 + a10, b8 + b10
        y1, z1 = a9 + a11, b9 + b11
        s, u = y0 * z0, y1 * z1
        e0, e1 = s - u - v10 - v20, (y0 + y1) * (z0 + z1) - s - u - v11 - v21
        g0, g1 = v00 + x0 * e0 - x1 * e1, v01 + x0 * e1 + x1 * e0
        y0, z0 = a6 + a8, b6 + b8
        y1, z1 = a7 + a9, b7 + b9
        s, u = y0 * z0, y1 * z1
        # h = (lo + hi) * (lo' + hi')
        c0, c1, c2, c3, c4, c5 = a0 + a6, a1 + a7, a2 + a8, a3 + a9, a4 + a10, a5 + a11
        d0, d1, d2, d3, d4, d5 = b0 + b6, b1 + b7, b2 + b8, b3 + b9, b4 + b10, b5 + b11
        g2 = s - u - v00 - v10 + x0 * v20 - x1 * v21
        g3 = (y0 + y1) * (z0 + z1) - s - u - v01 - v11 + x0 * v21 + x1 * v20
        y0, z0 = a6 + a10, b6 + b10
        y1, z1 = a7 + a11, b7 + b11
        s, u = y0 * z0, y1 * z1
        g4, g5 = s - u - v00 - v20 + v10, (y0 + y1) * (z0 + z1) - s - u - v01 - v21 + v11
        s, u = c0 * d0, c1 * d1
        v00, v01 = s - u, (c0 + c1) * (d0 + d1) - s - u
        s, u = c2 * d2, c3 * d3
        v10, v11 = s - u, (c2 + c3) * (d2 + d3) - s - u
        s, u = c4 * d4, c5 * d5
        v20, v21 = s - u, (c4 + c5) * (d4 + d5) - s - u
        y0, z0 = c2 + c4, d2 + d4
        y1, z1 = c3 + c5, d3 + d5
        s, u = y0 * z0, y1 * z1
        e0, e1 = s - u - v10 - v20, (y0 + y1) * (z0 + z1) - s - u - v11 - v21
        h0, h1 = v00 + x0 * e0 - x1 * e1, v01 + x0 * e1 + x1 * e0
        y0, z0 = c0 + c2, d0 + d2
        y1, z1 = c1 + c3, d1 + d3
        s, u = y0 * z0, y1 * z1
        h2 = s - u - v00 - v10 + x0 * v20 - x1 * v21
        h3 = (y0 + y1) * (z0 + z1) - s - u - v01 - v11 + x0 * v21 + x1 * v20
        y0, z0 = c0 + c4, d0 + d4
        y1, z1 = c1 + c5, d1 + d5
        s, u = y0 * z0, y1 * z1
        h4, h5 = s - u - v00 - v20 + v10, (y0 + y1) * (z0 + z1) - s - u - v01 - v21 + v11
        # f + v g, h - f - g
        return Fp12(tower, (
            ((f0 + x0 * g4 - x1 * g5) % m, (f1 + x0 * g5 + x1 * g4) % m),
            ((f2 + g0) % m, (f3 + g1) % m),
            ((f4 + g2) % m, (f5 + g3) % m),
        ), (
            ((h0 - f0 - g0) % m, (h1 - f1 - g1) % m),
            ((h2 - f2 - g2) % m, (h3 - f3 - g3) % m),
            ((h4 - f4 - g4) % m, (h5 - f5 - g5) % m),
        ))

    def square(self):
        """Complex squaring: ``(lo + hi)(lo + v hi) - g - v g`` and ``2 g``
        with ``g = lo hi`` — two ``Fp6`` products."""
        tower = self.tower
        t = RUN.tracer
        if t is not None:
            # 2 Fp6 products, 2 multiplies by v, 3 additions and 2 subtractions
            # of Fp6 elements.
            tower._report(t, 24, 21, 6)
        m = tower._mod
        x0, x1 = tower.xi
        (a0, a1), (a2, a3), (a4, a5) = self.c0
        (a6, a7), (a8, a9), (a10, a11) = self.c1
        # g = lo * hi
        s, u = a0 * a6, a1 * a7
        v00, v01 = s - u, (a0 + a1) * (a6 + a7) - s - u
        s, u = a2 * a8, a3 * a9
        v10, v11 = s - u, (a2 + a3) * (a8 + a9) - s - u
        s, u = a4 * a10, a5 * a11
        v20, v21 = s - u, (a4 + a5) * (a10 + a11) - s - u
        y0, z0 = a2 + a4, a8 + a10
        y1, z1 = a3 + a5, a9 + a11
        s, u = y0 * z0, y1 * z1
        e0, e1 = s - u - v10 - v20, (y0 + y1) * (z0 + z1) - s - u - v11 - v21
        g0, g1 = v00 + x0 * e0 - x1 * e1, v01 + x0 * e1 + x1 * e0
        y0, z0 = a0 + a2, a6 + a8
        y1, z1 = a1 + a3, a7 + a9
        s, u = y0 * z0, y1 * z1
        g2 = s - u - v00 - v10 + x0 * v20 - x1 * v21
        g3 = (y0 + y1) * (z0 + z1) - s - u - v01 - v11 + x0 * v21 + x1 * v20
        y0, z0 = a0 + a4, a6 + a10
        # h = (lo + hi) * (lo + v hi)
        c0, c1, c2, c3, c4, c5 = a0 + a6, a1 + a7, a2 + a8, a3 + a9, a4 + a10, a5 + a11
        d0, d1 = a0 + x0 * a10 - x1 * a11, a1 + x0 * a11 + x1 * a10
        d2, d3, d4, d5 = a2 + a6, a3 + a7, a4 + a8, a5 + a9
        y1, z1 = a1 + a5, a7 + a11
        s, u = y0 * z0, y1 * z1
        g4, g5 = s - u - v00 - v20 + v10, (y0 + y1) * (z0 + z1) - s - u - v01 - v21 + v11
        s, u = c0 * d0, c1 * d1
        v00, v01 = s - u, (c0 + c1) * (d0 + d1) - s - u
        s, u = c2 * d2, c3 * d3
        v10, v11 = s - u, (c2 + c3) * (d2 + d3) - s - u
        s, u = c4 * d4, c5 * d5
        v20, v21 = s - u, (c4 + c5) * (d4 + d5) - s - u
        y0, z0 = c2 + c4, d2 + d4
        y1, z1 = c3 + c5, d3 + d5
        s, u = y0 * z0, y1 * z1
        e0, e1 = s - u - v10 - v20, (y0 + y1) * (z0 + z1) - s - u - v11 - v21
        h0, h1 = v00 + x0 * e0 - x1 * e1, v01 + x0 * e1 + x1 * e0
        y0, z0 = c0 + c2, d0 + d2
        y1, z1 = c1 + c3, d1 + d3
        s, u = y0 * z0, y1 * z1
        h2 = s - u - v00 - v10 + x0 * v20 - x1 * v21
        h3 = (y0 + y1) * (z0 + z1) - s - u - v01 - v11 + x0 * v21 + x1 * v20
        y0, z0 = c0 + c4, d0 + d4
        y1, z1 = c1 + c5, d1 + d5
        s, u = y0 * z0, y1 * z1
        h4, h5 = s - u - v00 - v20 + v10, (y0 + y1) * (z0 + z1) - s - u - v01 - v21 + v11
        return Fp12(tower, (
            ((h0 - g0 - x0 * g4 + x1 * g5) % m, (h1 - g1 - x0 * g5 - x1 * g4) % m),
            ((h2 - g2 - g0) % m, (h3 - g3 - g1) % m),
            ((h4 - g4 - g2) % m, (h5 - g5 - g3) % m),
        ), (
            ((g0 + g0) % m, (g1 + g1) % m),
            ((g2 + g2) % m, (g3 + g3) % m),
            ((g4 + g4) % m, (g5 + g5) % m),
        ))

    def mul_by_line(self, s, l0, l1, k):
        """``self * (s + (l0 + l1*v) * v**k * w)`` — the sparse product of a
        Miller step: ``lo * L`` and ``hi * L`` for ``L = l0 + l1 v`` in five
        ``Fp2`` products each, where the dense product spends eighteen.

        *s* is a base-field integer, *l0*/*l1* raw Fp2 pairs and *k* is 0 or
        1: a D-type twist's line fills the slots ``1, w, w^3`` (``k = 0``),
        an M-type twist's ``1, w^3, w^5`` (``k = 1``).
        """
        tower = self.tower
        t = RUN.tracer
        if t is not None:
            # 2 sparse Fp6 products (7 f2 products, 3 additions each), 1 + 2k
            # multiplies by v, 6 f2_scale by s and 2 additions of Fp6 elements.
            tower._report(t, 17 if k else 15, 12, 0, 6)
        m = tower._mod
        x0, x1 = tower.xi
        (a0, a1), (a2, a3), (a4, a5) = self.c0
        (a6, a7), (a8, a9), (a10, a11) = self.c1
        n0, n1 = l0
        n2, n3 = l1
        o0, o1 = n0 + n2, n1 + n3                       # l0 + l1
        n01, n23, o01 = n0 + n1, n2 + n3, o0 + o1       # Karatsuba sums
        # X = lo * L: (p0 l0 + xi p2 l1, (p0 + p1)(l0 + l1) - p0 l0 - p1 l1,
        # p1 l1 + p2 l0), and Y = hi * L the same way.
        s0, u = a0 * n0, a1 * n1
        v00, v01 = s0 - u, (a0 + a1) * n01 - s0 - u
        s0, u = a2 * n2, a3 * n3
        v10, v11 = s0 - u, (a2 + a3) * n23 - s0 - u
        s0, u = a4 * n2, a5 * n3
        e0, e1 = s0 - u, (a4 + a5) * n23 - s0 - u
        s0, u = a4 * n0, a5 * n1
        X4, X5 = s0 - u + v10, (a4 + a5) * n01 - s0 - u + v11
        y0, y1 = a0 + a2, a1 + a3
        s0, u = y0 * o0, y1 * o1
        X2, X3 = s0 - u - v00 - v10, (y0 + y1) * o01 - s0 - u - v01 - v11
        X0, X1 = v00 + x0 * e0 - x1 * e1, v01 + x0 * e1 + x1 * e0
        s0, u = a6 * n0, a7 * n1
        v00, v01 = s0 - u, (a6 + a7) * n01 - s0 - u
        s0, u = a8 * n2, a9 * n3
        v10, v11 = s0 - u, (a8 + a9) * n23 - s0 - u
        s0, u = a10 * n2, a11 * n3
        e0, e1 = s0 - u, (a10 + a11) * n23 - s0 - u
        s0, u = a10 * n0, a11 * n1
        Y4, Y5 = s0 - u + v10, (a10 + a11) * n01 - s0 - u + v11
        y0, y1 = a6 + a8, a7 + a9
        s0, u = y0 * o0, y1 * o1
        Y2, Y3 = s0 - u - v00 - v10, (y0 + y1) * o01 - s0 - u - v01 - v11
        Y0, Y1 = v00 + x0 * e0 - x1 * e1, v01 + x0 * e1 + x1 * e0
        if k:
            # One more factor v on both: (c0, c1, c2) -> (xi c2, c0, c1).
            X0, X1, X2, X3, X4, X5 = x0 * X4 - x1 * X5, x0 * X5 + x1 * X4, X0, X1, X2, X3
            Y0, Y1, Y2, Y3, Y4, Y5 = x0 * Y4 - x1 * Y5, x0 * Y5 + x1 * Y4, Y0, Y1, Y2, Y3
        # s lo + v Y, s hi + X (w * w = v)
        return Fp12(tower, (
            ((s * a0 + x0 * Y4 - x1 * Y5) % m, (s * a1 + x0 * Y5 + x1 * Y4) % m),
            ((s * a2 + Y0) % m, (s * a3 + Y1) % m),
            ((s * a4 + Y2) % m, (s * a5 + Y3) % m),
        ), (
            ((s * a6 + X0) % m, (s * a7 + X1) % m),
            ((s * a8 + X2) % m, (s * a9 + X3) % m),
            ((s * a10 + X4) % m, (s * a11 + X5) % m),
        ))

    def cyclotomic_square(self):
        """``self ** 2`` for an element of the cyclotomic subgroup
        (``self ** (p^4 - p^2 + 1) == 1``, e.g. anything raised to
        ``(p^6 - 1)(p^2 + 1)``) — Granger–Scott: 9 ``Fp2`` squarings where
        :meth:`square` spends 12 products.  Wrong for any other element.

        Over ``Fp4 = Fp2[y]``, ``y = w^3``, write ``self = A + B*w + C*w^2``
        with ``A = g0 + g3*y``, ``B = g1 + g4*y``, ``C = g2 + g5*y``
        (``g_i`` the coefficient of ``w^i``); then ``self ** 2`` is
        ``(3A^2 - 2A') + (3y*C^2 + 2B')*w + (3B^2 - 2C')*w^2`` with ``'`` the
        conjugation ``y -> -y``, and ``(a + b*y)^2 = (a^2 + xi b^2) +
        ((a + b)^2 - a^2 - b^2) y``.
        """
        tower = self.tower
        t = RUN.tracer
        if t is not None:
            # 3 Fp4 squarings (4 f2 products, 2 additions, 2 subtractions
            # each), a multiply by xi, and 15 additions and 3 subtractions
            # for the 3A^2 - 2A' terms.
            tower._report(t, 13, 21, 9)
        m = tower._mod
        x0, x1 = tower.xi
        (a0, a1), (a2, a3), (a4, a5) = self.c0       # g0, g2, g4
        (a6, a7), (a8, a9), (a10, a11) = self.c1     # g1, g3, g5
        # A^2 = (A0, A1) + (A2, A3) y, B^2 and C^2 alike.
        s, u = (a0 + a1) * (a0 - a1), (a0 + a0) * a1
        v, w = (a8 + a9) * (a8 - a9), (a8 + a8) * a9
        y0, y1 = a0 + a8, a1 + a9
        A0, A1 = s + x0 * v - x1 * w, u + x0 * w + x1 * v
        A2, A3 = (y0 + y1) * (y0 - y1) - s - v, (y0 + y0) * y1 - u - w
        s, u = (a6 + a7) * (a6 - a7), (a6 + a6) * a7
        v, w = (a4 + a5) * (a4 - a5), (a4 + a4) * a5
        y0, y1 = a6 + a4, a7 + a5
        B0, B1 = s + x0 * v - x1 * w, u + x0 * w + x1 * v
        B2, B3 = (y0 + y1) * (y0 - y1) - s - v, (y0 + y0) * y1 - u - w
        s, u = (a2 + a3) * (a2 - a3), (a2 + a2) * a3
        v, w = (a10 + a11) * (a10 - a11), (a10 + a10) * a11
        y0, y1 = a2 + a10, a3 + a11
        C0, C1 = s + x0 * v - x1 * w, u + x0 * w + x1 * v
        C2, C3 = (y0 + y1) * (y0 - y1) - s - v, (y0 + y0) * y1 - u - w
        return Fp12(tower, (
            ((3 * A0 - 2 * a0) % m, (3 * A1 - 2 * a1) % m),
            ((3 * B0 - 2 * a2) % m, (3 * B1 - 2 * a3) % m),
            ((3 * C0 - 2 * a4) % m, (3 * C1 - 2 * a5) % m),
        ), (
            ((3 * (x0 * C2 - x1 * C3) + 2 * a6) % m, (3 * (x0 * C3 + x1 * C2) + 2 * a7) % m),
            ((3 * A2 + 2 * a8) % m, (3 * A3 + 2 * a9) % m),
            ((3 * B2 + 2 * a10) % m, (3 * B3 + 2 * a11) % m),
        ))

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
