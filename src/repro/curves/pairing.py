"""Optimal ate pairings for BN254 and BLS12-381.

Two formulations of one map, selected by the pinning rule (docs/KERNELS.md)
and returning the same ``Fp12`` elements
(``tests/curves/test_pairing_differential.py``):

- **Reference** — every traced run, and the oracle of the differential
  tests.  The Miller loop runs on the *untwisted* image of G2 inside
  ``E(Fp12)`` with affine coordinates, sharing each step's slope between the
  point update and the line evaluation (the textbook formulation py_ecc also
  uses), and the hard part of the final exponentiation is
  ``f ** ((p^4 - p^2 + 1) / r)`` by square-and-multiply.  Easy to audit, and
  its cost structure (big-integer multiplies dominating) is what the paper's
  verifying-stage characterization and the modeled figures rest on.
- **Fast** — every untraced run.  ``R`` stays in affine coordinates *on the
  twist* (``Fp2`` slope, one ``f2_inv`` per step), which depends on ``Q``
  alone: :meth:`PairingEngine._lines` yields each step's line coefficients
  and :meth:`PairingEngine.prepare` keeps them (a verifying key's fixed G2
  points are walked once).  One loop serves any number of pairs, squaring
  ``f`` once a step for all of them and multiplying it by the exact sparse
  line the reference evaluates,

      ``-yP + (lam*xP) * w    + (y1 - lam*x1) * w^3``     (D-type, BN254)
      ``-yP + (lam*xP) * w^-1 + (y1 - lam*x1) * w^-3``    (M-type, BLS12-381)

  through :meth:`Fp12.mul_by_line`; a ``Q`` whose walk meets a chord through
  two points of equal ``x`` has no lines and that pair runs the reference,
  so points outside the order-``r`` subgroup behave as they always did.  The
  hard part runs in the cyclotomic subgroup (Granger–Scott squaring,
  inversion by conjugation, exponentiation by the curve parameter ``z``)
  along the family decomposition of the same exponent,

      BN:    ``p^3 + (6z^2 + 1) p^2 + (-36z^3 - 18z^2 - 12z + 1) p``
             ``+ (-36z^3 - 30z^2 - 18z - 2)``
      BLS12: ``((z - 1)^2 / 3) (z + p) (z^2 + p^2 - 1) + 1``

  which the constructor checks against ``(p^4 - p^2 + 1) / r`` as integers.

Correctness is established by the bilinearity/non-degeneracy property tests
in ``tests/curves/test_pairing.py`` plus the end-to-end Groth16 tests — a
non-degenerate bilinear map is precisely the interface Groth16 consumes.
"""

from __future__ import annotations

from repro.context import RUN
from repro.fields.extensions import Fp12

__all__ = ["PairingEngine", "PreparedG2", "engine_for"]


class PreparedG2:
    """An affine twist point with the lines of its Miller loop walked once
    (:meth:`PairingEngine.prepare`): 68 ``(square, c, d)`` steps on
    BLS12-381, 102 on BN254.  ``lines`` is ``None`` where the walk met a
    degenerate chord; such a pair runs the reference on ``point``.  Stands
    where a G2 ``Point`` does in :meth:`PairingEngine.multi_pairing`."""

    __slots__ = ("point", "lines")

    def __init__(self, point, lines):
        self.point = point
        self.lines = lines

    def to_affine(self):
        return self


class PairingEngine:
    """Pairing ``e : G1 x G2 -> Fp12`` for one :class:`CurveSpec`."""

    def __init__(self, curve):
        self.curve = curve
        self.tower = curve.tower
        p = curve.fq.modulus
        r = curve.fr.modulus
        hard = p**4 - p**2 + 1
        if hard % r != 0:
            raise ValueError(f"{curve.name}: r does not divide p^4 - p^2 + 1")
        self._hard_exponent = hard // r
        z = curve.parameter
        # The decomposition the cyclotomic hard part walks (module docstring).
        if curve.family == "bn":
            decomposed = (
                p**3
                + (6 * z**2 + 1) * p**2
                + (-36 * z**3 - 18 * z**2 - 12 * z + 1) * p
                + (-36 * z**3 - 30 * z**2 - 18 * z - 2)
            )
        elif (z - 1) % 3 == 0:
            decomposed = (z - 1) ** 2 // 3 * (z + p) * (z**2 + p**2 - 1) + 1
        else:
            decomposed = None
        if decomposed != self._hard_exponent:
            raise ValueError(
                f"{curve.name}: parameter {z} does not generate (p^4 - p^2 + 1) / r"
            )
        self._one = self.tower.fp12_one()

    # -- embeddings ------------------------------------------------------------

    def _fp12_scalar(self, c):
        """Embed a base-field integer as an Fp12 element."""
        z = (0, 0)
        return Fp12(self.tower, ((c, 0), z, z), (z, z, z))

    def embed_g1(self, P):
        """Map an affine G1 point (ints) to ``E(Fp12)`` coordinates."""
        x, y = P
        return (self._fp12_scalar(x), self._fp12_scalar(y))

    def untwist_g2(self, Q):
        """Map an affine twist point (Fp2 pairs) to ``E(Fp12)``.

        BN254 uses a D-type twist (``psi(x,y) = (x w^2, y w^3)``); BLS12-381
        an M-type twist (``psi(x,y) = (x w^4 / xi, y w^3 / xi)``).  In the
        tower basis ``w^2 = v`` these land on sparse Fp6 slots.
        """
        t = self.tower
        xq, yq = Q
        z = (0, 0)
        if self.curve.family == "bn":
            x12 = Fp12(t, (z, xq, z), (z, z, z))          # x * v
            y12 = Fp12(t, (z, z, z), (z, yq, z))          # y * v * w
        else:
            xi_inv = t.f2_inv(t.xi)
            xs = t.f2_mul(xq, xi_inv)
            ys = t.f2_mul(yq, xi_inv)
            x12 = Fp12(t, (z, z, xs), (z, z, z))          # x/xi * v^2
            y12 = Fp12(t, (z, z, z), (z, ys, z))          # y/xi * v * w
        return (x12, y12)

    # -- affine steps in E(Fp12) --------------------------------------------------

    def _double_step(self, R, P):
        """Return ``(2R, line_{R,R}(P))`` sharing the tangent slope."""
        x1, y1 = R
        xt, yt = P
        x1_sq = x1.square()
        num = x1_sq + x1_sq + x1_sq
        den = y1 + y1
        m = num * den.inverse()
        x3 = m.square() - (x1 + x1)
        y3 = m * (x1 - x3) - y1
        line = m * (xt - x1) - (yt - y1)
        return (x3, y3), line

    def _add_step(self, R, Q, P):
        """Return ``(R + Q, line_{R,Q}(P))`` sharing the chord slope."""
        x1, y1 = R
        x2, y2 = Q
        xt, yt = P
        if x1 == x2:
            if y1 == y2:
                return self._double_step(R, P)
            # Vertical line; R + Q is the identity.
            return None, xt - x1
        m = (y2 - y1) * (x2 - x1).inverse()
        x3 = m.square() - x1 - x2
        y3 = m * (x1 - x3) - y1
        line = m * (xt - x1) - (yt - y1)
        return (x3, y3), line

    def _frobenius_point(self, R):
        """Coordinate-wise Frobenius ``(x^p, y^p)`` — an endomorphism of E."""
        x, y = R
        return (x.frobenius(), y.frobenius())

    # -- Miller loop -----------------------------------------------------------------

    def miller_loop(self, P_aff, Q_aff):
        """The Miller function value ``f`` before final exponentiation.

        *P_aff* is an affine G1 point (raw ints), *Q_aff* an affine twist
        point (raw Fp2 pairs) or a :class:`PreparedG2`.  Returns 1 if either
        input is the identity.
        """
        tracer = RUN.tracer
        if tracer is None:
            return self._miller_loops([(P_aff, Q_aff)])
        if P_aff is None or Q_aff is None:
            return self._one
        tracer.op("pairing_miller_loop")
        if isinstance(Q_aff, PreparedG2):
            Q_aff = Q_aff.point
        return self._reference_loop(P_aff, Q_aff)

    def _reference_loop(self, P_aff, Q_aff):
        """The textbook loop on ``E(Fp12)`` (module docstring)."""
        P = self.embed_g1(P_aff)
        Q = self.untwist_g2(Q_aff)
        loop = self.curve.ate_loop
        f = self._one
        R = Q
        for i in range(loop.bit_length() - 2, -1, -1):
            R, line = self._double_step(R, P)
            f = f * f * line
            if (loop >> i) & 1:
                R, line = self._add_step(R, Q, P)
                f = f * line
        if self.curve.family == "bn":
            # Optimal ate for BN needs two Frobenius-twisted additions.
            Q1 = self._frobenius_point(Q)
            Q2 = self._frobenius_point(Q1)
            nQ2 = (Q2[0], -Q2[1])
            R, line = self._add_step(R, Q1, P)
            f = f * line
            _, line = self._add_step(R, nQ2, P)
            f = f * line
        elif self.curve.x_negative:
            # BLS with negative x: conjugate f (valid up to final exp).
            f = f.conjugate()
        return f

    # -- Miller loop on the twist (untraced runs) ----------------------------------------

    def _lines(self, Q_aff):
        """Yield ``(square, c, d)`` for each line of the Miller loop of
        *Q_aff*, in loop order: at ``P = (xP, yP)`` the line is ``-yP`` plus
        the ``Fp2`` coefficients ``c * xP`` and ``d`` in the slots of the
        module docstring (``1/xi`` of the M-type twist folded into both), and
        *square* says that it is a tangent, before which ``f`` is squared.
        Nothing here depends on ``P``.  Raises ``ZeroDivisionError`` (from
        ``f2_inv``) at a chord through two points of equal ``x`` — ``R =
        +-Q``, impossible for ``Q`` of order ``r`` — where the reference
        doubles or loses ``R`` to the identity."""
        t = self.tower
        add, sub, mul, sqr, inv = t.f2_add, t.f2_sub, t.f2_mul, t.f2_sqr, t.f2_inv
        bn = self.curve.family == "bn"
        # The M-type line's w^-1 and w^-3 are w^5 / xi and w^3 / xi.
        xi_inv = t.xi_inv

        def line(lam, x1, y1, x2):
            """Coefficients of the line of slope *lam* through ``R = (x1,
            y1)``, and ``R`` plus the line's point of abscissa *x2*."""
            nu = sub(y1, mul(lam, x1))
            x3 = sub(sub(sqr(lam), x1), x2)
            cd = (lam, nu) if bn else (mul(lam, xi_inv), mul(nu, xi_inv))
            return cd, x3, sub(mul(lam, sub(x1, x3)), y1)

        def chord(x1, y1, x2, y2):
            return mul(sub(y2, y1), inv(sub(x2, x1)))

        xq, yq = x1, y1 = Q_aff
        for bit in bin(self.curve.ate_loop)[3:]:
            x1_sq = sqr(x1)
            tangent = mul(add(add(x1_sq, x1_sq), x1_sq), inv(add(y1, y1)))
            cd, x1, y1 = line(tangent, x1, y1, x1)
            yield (True, *cd)
            if bit == "1":
                cd, x1, y1 = line(chord(x1, y1, xq, yq), x1, y1, xq)
                yield (False, *cd)
        if bn:
            # Frobenius seen from the twist: conjugate, then scale x by
            # xi^((p-1)/3) and y by xi^((p-1)/2).
            g1, _g2, gw = t.frobenius_constants
            gy = mul(g1, gw)
            conj = t.f2_conj
            x2, y2 = mul(conj(xq), g1), mul(conj(yq), gy)
            x3, y3 = mul(conj(x2), g1), t.f2_neg(mul(conj(y2), gy))
            cd, x1, y1 = line(chord(x1, y1, x2, y2), x1, y1, x2)
            yield (False, *cd)
            yield (False, *line(chord(x1, y1, x3, y3), x1, y1, x3)[0])

    def prepare(self, Q_aff):
        """*Q_aff* (affine twist point) as a :class:`PreparedG2`, its lines
        materialised; the identity and a prepared point come back as given."""
        if Q_aff is None or isinstance(Q_aff, PreparedG2):
            return Q_aff
        try:
            return PreparedG2(Q_aff, tuple(self._lines(Q_aff)))
        except ZeroDivisionError:
            # A degenerate step: the reference decides what it means.
            return PreparedG2(Q_aff, None)

    def _miller_loops(self, pairs):
        """``prod_i miller_loop(P_i, Q_i)`` — the element the product of
        reference loops is — by one loop that squares ``f`` once a step for
        all pairs and evaluates each pair's line at ``P_i`` with one
        ``f2_scale``.  ``Q_i`` is an affine twist point or a prepared one."""
        t = self.tower
        scale = t.f2_scale
        bn = self.curve.family == "bn"
        one = f = rest = self._one
        at, tables = [], []
        for P, Q in pairs:
            Q = None if P is None else self.prepare(Q)
            if Q is None:
                continue
            if Q.lines is None:
                rest = rest * self._reference_loop(P, Q.point)
            else:
                at.append((t.fq.neg(P[1]), P[0]))
                tables.append(Q.lines)
        for step in zip(*tables):
            if step[0][0] and f is not one:
                f = f.square()
            for (s, xP), (_, c, d) in zip(at, step):
                if bn:
                    f = f.mul_by_line(s, scale(c, xP), d, 0)
                else:
                    f = f.mul_by_line(s, d, scale(c, xP), 1)
        if self.curve.x_negative and not bn:
            f = f.conjugate()
        return f if rest is one else f * rest

    # -- final exponentiation -----------------------------------------------------------

    def final_exponentiation(self, f):
        """Map a Miller value to the order-r cyclotomic subgroup."""
        tracer = RUN.tracer
        if tracer is not None:
            tracer.op("pairing_final_exp")
        if f.is_zero():
            # codelint: ignore[RC301] -- mirrors Python division semantics
            raise ZeroDivisionError("final exponentiation of zero (degenerate pairing input)")
        f1 = f.conjugate() * f.inverse()              # f^(p^6 - 1)
        f2 = f1.frobenius().frobenius() * f1          # ... ^(p^2 + 1)
        if tracer is not None:
            return f2 ** self._hard_exponent          # ... ^((p^4 - p^2 + 1)/r)
        if self.curve.family == "bn":
            return self._hard_part_bn(f2)
        return self._hard_part_bls12(f2)

    def _pow_cyclotomic(self, f, e):
        """``f ** e`` (``e != 0``) for *f* in the cyclotomic subgroup, where
        squaring is Granger–Scott and the inverse is the conjugate."""
        acc = f
        for bit in bin(abs(e))[3:]:
            acc = acc.cyclotomic_square()
            if bit == "1":
                acc = acc * f
        return acc.conjugate() if e < 0 else acc

    def _hard_part_bn(self, f):
        """``f ** (l3 p^3 + l2 p^2 + l1 p + l0)`` with the BN coefficients of
        the module docstring (Scott et al., "On the final exponentiation for
        calculating pairings on ordinary elliptic curves"): three powers by
        ``z``, Frobenius maps, and the addition chain for
        ``y0 y1^2 y2^6 y3^12 y4^18 y5^30 y6^36``."""
        z = self.curve.parameter
        a = self._pow_cyclotomic(f, z)
        b = self._pow_cyclotomic(a, z)
        c = self._pow_cyclotomic(b, z)
        f_p = f.frobenius()
        f_p2 = f_p.frobenius()
        b_p = b.frobenius()
        y0 = f_p * f_p2 * f_p2.frobenius()             # p + p^2 + p^3
        y1 = f.conjugate()                             # -1
        y2 = b_p.frobenius()                           # z^2 p^2
        y3 = a.frobenius().conjugate()                 # -z p
        y4 = (a * b_p).conjugate()                     # -(z + z^2 p)
        y5 = b.conjugate()                             # -z^2
        y6 = (c * c.frobenius()).conjugate()           # -(z^3 + z^3 p)
        t0 = y6.cyclotomic_square() * y4 * y5
        t1 = y3 * y5 * t0
        t0 = t0 * y2
        t1 = (t1.cyclotomic_square() * t0).cyclotomic_square()
        t0 = (t1 * y1).cyclotomic_square()
        return t0 * (t1 * y0)

    def _hard_part_bls12(self, f):
        """``f ** (((z-1)^2 / 3) (z + p) (z^2 + p^2 - 1) + 1)`` — the BLS12
        hard exponent itself, not its usual multiple by 3."""
        z = self.curve.parameter
        pow_ = self._pow_cyclotomic
        t = pow_(pow_(f, z) * f.conjugate(), (z - 1) // 3)                    # (z-1)^2 / 3
        t = pow_(t, z) * t.frobenius()                                        # z + p
        t = pow_(pow_(t, z), z) * t.frobenius().frobenius() * t.conjugate()   # z^2 + p^2 - 1
        return t * f

    # -- public API ------------------------------------------------------------------------

    def pairing(self, P, Q):
        """``e(P, Q)`` for ``P`` in G1 and ``Q`` in G2 (group Points)."""
        return self.final_exponentiation(
            self.miller_loop(P.to_affine(), Q.to_affine())
        )

    def multi_pairing(self, pairs, f=None):
        """``prod_i e(P_i, Q_i)`` with a single shared final exponentiation —
        the standard verifier optimization (one final exp per proof).  A
        ``Q_i`` may be a :class:`PreparedG2`, and *f* a Miller value to
        multiply in first (a fixed pair's, computed once)."""
        if RUN.tracer is None:
            prod = self._miller_loops([(P.to_affine(), Q.to_affine()) for P, Q in pairs])
        else:
            prod = self._one
            for P, Q in pairs:
                prod = prod * self.miller_loop(P.to_affine(), Q.to_affine())
        if f is not None:
            prod = prod * f
        return self.final_exponentiation(prod)

    def pairing_check(self, pairs, f=None):
        """True iff ``f * prod_i e(P_i, Q_i) == 1`` after the final
        exponentiation — the Groth16 verify predicate."""
        return self.multi_pairing(pairs, f).is_one()


_ENGINES = {}


def engine_for(curve):
    """The process's one :class:`PairingEngine` for *curve*: the constructor
    checks the hard-part decomposition, once."""
    eng = _ENGINES.get(curve.name)
    if eng is None:
        eng = PairingEngine(curve)
        # codelint: ignore[RC103] -- per-process engine memo, keyed by curve
        _ENGINES[curve.name] = eng
    return eng
