"""Optimal ate pairings for BN254 and BLS12-381.

One formulation computes every value.  ``R`` stays in affine coordinates
*on the twist* (``Fp2`` slope; the points walked together share one ``Fp``
inversion a step), which depends on ``Q`` alone: :meth:`PairingEngine._walk`
gives each step's line coefficients and :meth:`PairingEngine.prepare_all`
keeps them (a verifying key's fixed G2 points are walked once).  One loop
serves any number of pairs, squaring ``f`` once a step for all of them and
multiplying it by the sparse line of the textbook loop on ``E(Fp12)``,

    ``-yP + (lam*xP) * w    + (y1 - lam*x1) * w^3``     (D-type, BN254)
    ``-yP + (lam*xP) * w^-1 + (y1 - lam*x1) * w^-3``    (M-type, BLS12-381)

through :meth:`Fp12.mul_by_line`.  A step with a zero denominator (a chord
through ``R = +-Q`` or a tangent at ``y = 0``, which no point of order ``r``
meets) raises ``ZeroDivisionError``.  The hard part of the final
exponentiation runs in the cyclotomic subgroup (Granger–Scott squaring,
inversion by conjugation, exponentiation by the curve parameter ``z``)
along the family decomposition of ``(p^4 - p^2 + 1) / r``,

    BN:    ``p^3 + (6z^2 + 1) p^2 + (-36z^3 - 18z^2 - 12z + 1) p``
           ``+ (-36z^3 - 30z^2 - 18z - 2)``
    BLS12: ``((z - 1)^2 / 3) (z + p) (z^2 + p^2 - 1) + 1``

which the constructor checks against ``(p^4 - p^2 + 1) / r`` as integers.

**Charging a reference** (docs/KERNELS.md).  The modeled verifying stage
counts the textbook route instead: the Miller loop on the untwisted image of
G2 inside ``E(Fp12)`` in affine coordinates, each step's slope shared
between the point update and the line (the formulation py_ecc uses), and
the hard part as ``f ** ((p^4 - p^2 + 1) / r)`` by square-and-multiply —
big-integer multiplies dominating, as in the paper's Tables III–V.  Its
counts depend on the loop's and the hard exponent's bits alone, so under a
tracer each public call computes its value as above with the tracer
detached, then charges the tracer that route's primitives.  The textbook
route itself is ``tests/oracle.py``'s, and
``tests/curves/test_pairing_charge.py`` holds the charged trace equal to it
executed.

Correctness is established by the bilinearity/non-degeneracy property tests
in ``tests/curves/test_pairing.py`` plus the end-to-end Groth16 tests — a
non-degenerate bilinear map is precisely the interface Groth16 consumes.
"""

from __future__ import annotations

from collections import Counter

from repro.context import RUN, Tally, charge, untraced

__all__ = ["PairingEngine", "PreparedG2", "engine_for"]

#: Each ``Fp12`` operation of the textbook route as ``(f2 products, f2
#: additions, f2 subtractions, f2 inversions)``, the first three in
#: :meth:`TowerParams._report` units: a product and a squaring are what
#: their fused kernels report, the rest their ``Fp6`` / ``f2_*`` calls (an
#: ``f2_neg`` or two ``f2_conj`` count as one addition).
_FP12_OPS = {
    "mul": (34, 27, 6, 0),
    "square": (24, 21, 6, 0),
    "add": (0, 6, 0, 0),
    "sub": (0, 0, 6, 0),
    "neg": (0, 6, 0, 0),
    "conjugate": (0, 3, 0, 0),
    "frobenius": (7, 3, 0, 0),
    "inverse": (60, 29, 6, 1),
}


def _tally(tower, ops, f2=(0, 0, 0, 0)):
    """The primitives of *ops*, ``{Fp12 operation: count}``, plus *f2* work
    in the same units, by the tower's report rule."""
    products, adds, subs, inversions = (
        extra + sum(n * _FP12_OPS[name][k] for name, n in ops.items())
        for k, extra in enumerate(f2))
    tally = Tally()
    tower._report(tally, products, adds, subs)
    # f2_inv's guard (two squarings, a product, a subtraction), then its Fp
    # tail: an inversion, two products and a negation.
    tally.op(tower._sqr_tag, 2 * inversions)
    tally.op(tower._mul_tag, 3 * inversions)
    tally.op(tower._sub_tag, inversions)
    tally.op(tower.fq._inv_tag, inversions)
    tally.op(tower._add_tag, inversions)
    return +tally


class PreparedG2:
    """An affine twist point with the lines of its Miller loop walked once
    (:meth:`PairingEngine.prepare`): 68 ``(square, c, d)`` steps on
    BLS12-381, 102 on BN254.  Stands where a G2 ``Point`` does in
    :meth:`PairingEngine.multi_pairing`."""

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
        bn = curve.family == "bn"
        # The decomposition the cyclotomic hard part walks (module docstring).
        if bn:
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
        # The reference route's primitives (module docstring), from control
        # data alone.  Per bit of the loop after the first, a tangent step (2
        # square, 4 add, 6 sub, 3 mul, 1 inverse), then f * f * line; per set
        # bit after it, a chord step (1 square, 9 sub, 3 mul, 1 inverse),
        # then f * line.
        loop = curve.ate_loop
        tangents, chords = loop.bit_length() - 1, bin(loop).count("1") - 1
        if bn:
            # Two more chords, through Q's two Frobenius images, the second
            # negated.
            ops, untwist, chords = Counter(frobenius=4, neg=1), (0, 0, 0, 0), chords + 2
        else:
            # Untwisting Q scales it by 1 / xi; a negative x conjugates f.
            ops, untwist = Counter(conjugate=int(curve.x_negative)), (2, 0, 0, 1)
        ops.update(square=2 * tangents + chords, add=4 * tangents, sub=6 * tangents + 9 * chords,
                   mul=5 * tangents + 4 * chords, inverse=tangents + chords)
        self._loop_cost = _tally(self.tower, ops, untwist)
        self._loop_cost["pairing_miller_loop"] = 1
        # The easy part, f^((p^6 - 1)(p^2 + 1)), then square-and-multiply.
        h = self._hard_exponent
        self._final_exp_cost = _tally(self.tower, {
            "conjugate": 1, "inverse": 1, "frobenius": 2,
            "mul": 2 + bin(h).count("1"), "square": h.bit_length()})
        self._final_exp_cost["pairing_final_exp"] = 1
        self._product_cost = _tally(self.tower, {"mul": 1})

    # -- charging the reference ----------------------------------------------------

    def charge_miller_loops(self, t, pairs):
        """Charge the tracer *t* the textbook product ``1 * miller_loop(P_1,
        Q_1) * ...`` over the affine *pairs*: one ``Fp12`` product a pair,
        and one reference loop a pair without the identity (``None``)."""
        charge(t, self._loop_cost, sum(P is not None and Q is not None for P, Q in pairs))
        charge(t, self._product_cost, len(pairs))

    def charge_final_exponentiation(self, t):
        """Charge the tracer *t* one reference final exponentiation."""
        charge(t, self._final_exp_cost)

    # -- Miller loop -----------------------------------------------------------------

    def miller_loop(self, P_aff, Q_aff):
        """The Miller function value ``f`` before final exponentiation.

        *P_aff* is an affine G1 point (raw ints), *Q_aff* an affine twist
        point (raw Fp2 pairs) or a :class:`PreparedG2`.  Returns 1 if either
        input is the identity.
        """
        f = untraced(self._miller_loops, [(P_aff, Q_aff)])
        t = RUN.tracer
        if t is not None and P_aff is not None and Q_aff is not None:
            charge(t, self._loop_cost)
        return f

    def _walk(self, points):
        """The lines of the Miller loop of each affine twist point in
        *points*, walked in lockstep: per point a tuple of ``(square, c, d)``
        in loop order.  At ``P = (xP, yP)`` a line is ``-yP`` plus the
        ``Fp2`` coefficients ``c * xP`` and ``d`` in the slots of the module
        docstring (``1/xi`` of the M-type twist folded into both); *square*
        says that it is a tangent, before which ``f`` is squared.  Nothing
        here depends on ``P``.  ``R`` stays affine on the twist; every step
        takes the slopes of all points at once (:meth:`_slopes`), then
        updates each point and forms its line in flat ``Fp2`` steps."""
        if not points:
            return []
        t = self.tower
        m = t._mod
        bn = self.curve.family == "bn"
        # The M-type line's w^-1 and w^-3 are w^5 / xi and w^3 / xi.
        i0, i1 = t.xi_inv
        # Chord targets: Q for the loop's additions, then on BN its two
        # Frobenius images seen from the twist (conjugate, then scale x by
        # xi^((p-1)/3) and y by xi^((p-1)/2)), the second negated.
        targets = [(Q,) for Q in points]
        if bn:
            g1, _g2, gw = t.frobenius_constants
            gy, conj, mul = t.f2_mul(g1, gw), t.f2_conj, t.f2_mul
            for j, (xq, yq) in enumerate(points):
                x2, y2 = mul(conj(xq), g1), mul(conj(yq), gy)
                targets[j] += ((x2, y2), (mul(conj(x2), g1), t.f2_neg(mul(conj(y2), gy))))
        schedule = []
        for bit in bin(self.curve.ate_loop)[3:]:
            schedule.append(None)                   # tangent
            if bit == "1":
                schedule.append(0)                  # chord through Q
        if bn:
            schedule += [1, 2]
        state = [(*xq, *yq) for xq, yq in points]   # R = (x0, x1, y0, y1)
        lines = [[None] * len(schedule) for _ in points]
        for k, target in enumerate(schedule):
            square = target is None
            for i, (l0, l1, z0, z1) in enumerate(self._slopes(state, targets, target)):
                x0, x1, y0, y1 = state[i]
                # nu = y - lam x; R' = (lam^2 - x - z, lam (x - x') - y).
                ls = l0 + l1
                t0, t1 = l0 * x0, l1 * x1
                c0, c1 = (y0 - t0 + t1) % m, (y1 - ls * (x0 + x1) + t0 + t1) % m
                u0, u1 = (ls * (l0 - l1) - x0 - z0) % m, ((l0 + l0) * l1 - x1 - z1) % m
                e0, e1 = x0 - u0, x1 - u1
                t0, t1 = l0 * e0, l1 * e1
                state[i] = (u0, u1, (t0 - t1 - y0) % m, (ls * (e0 + e1) - t0 - t1 - y1) % m)
                if bn:
                    lines[i][k] = (square, (l0, l1), (c0, c1))
                else:
                    lines[i][k] = (square,
                                   ((l0 * i0 - l1 * i1) % m, (l0 * i1 + l1 * i0) % m),
                                   ((c0 * i0 - c1 * i1) % m, (c0 * i1 + c1 * i0) % m))
        return [tuple(walked) for walked in lines]

    def _slopes(self, state, targets, target):
        """``[(l0, l1, z0, z1)]``: the slope ``lam = l0 + l1 u`` of this step
        of each point ``i`` of :meth:`_walk` (``R = state[i]``), and the
        abscissa ``z`` of the line's other point — the tangent's ``3 x^2 /
        2y`` at ``z = x`` when *target* is ``None``, else the chord through
        ``targets[i][target]``.  ``lam = num * conj(den) / norm(den)``, and
        the norms of all points' denominators are inverted together
        (Montgomery's trick: one ``Fp`` inversion for every point).  A zero
        norm is a zero denominator — the tangent at ``y = 0`` or a chord
        through two points of equal ``x`` (``R = +-Q``, impossible for ``Q``
        of order ``r``) — and raises ``ZeroDivisionError``."""
        fq, m = self.tower.fq, self.tower._mod
        work, norms = [None] * len(state), [0] * len(state)
        for i, (x0, x1, y0, y1) in enumerate(state):
            if target is None:
                n0, n1 = 3 * (x0 + x1) * (x0 - x1) % m, 6 * x0 * x1 % m
                d0, d1 = y0 + y0, y1 + y1
                z0, z1 = x0, x1
            else:
                (z0, z1), (w0, w1) = targets[i][target]
                n0, n1 = w0 - y0, w1 - y1
                d0, d1 = z0 - x0, z1 - x1
            work[i] = (n0, n1, d0, d1, z0, z1)
            norms[i] = (d0 * d0 + d1 * d1) % m
        slopes = [None] * len(work)
        for i, ((n0, n1, d0, d1, z0, z1), ninv) in enumerate(zip(work, fq.batch_inv(norms))):
            t0, t1 = n0 * d0, n1 * d1
            slopes[i] = ((t0 + t1) % m * ninv % m,
                         ((n0 + n1) * (d0 - d1) - t0 + t1) % m * ninv % m, z0, z1)
        return slopes

    def prepare(self, Q_aff):
        """*Q_aff* (affine twist point) as a :class:`PreparedG2`, its lines
        materialised; the identity and a prepared point come back as given."""
        return self.prepare_all([Q_aff])[0]

    def prepare_all(self, points):
        """``[prepare(Q) for Q in points]``, the affine points walked in
        lockstep (:meth:`_walk`)."""
        todo = [i for i, Q in enumerate(points)
                if Q is not None and not isinstance(Q, PreparedG2)]
        out = list(points)
        for i, walked in zip(todo, self._walk([points[i] for i in todo])):
            out[i] = PreparedG2(points[i], walked)
        return out

    def _miller_loops(self, pairs):
        """``prod_i miller_loop(P_i, Q_i)`` by one loop that squares ``f``
        once a step for all pairs and evaluates each pair's line at ``P_i``
        with one scaling by ``xP``.  ``Q_i`` is an affine twist point,
        prepared here with the other affine ones in lockstep, or a prepared
        one."""
        t = self.tower
        m = t._mod
        bn = self.curve.family == "bn"
        one = f = self._one
        at, tables = [], []
        prepared = self.prepare_all([None if P is None else Q for P, Q in pairs])
        for (P, _), Q in zip(pairs, prepared):
            if Q is not None:
                at.append((t.fq.neg(P[1]), P[0]))
                tables.append(Q.lines)
        for step in zip(*tables):
            if step[0][0] and f is not one:
                f = f.square()
            for (s, xP), (_, (c0, c1), d) in zip(at, step):
                if bn:
                    f = f.mul_by_line(s, (c0 * xP % m, c1 * xP % m), d, 0)
                else:
                    f = f.mul_by_line(s, d, (c0 * xP % m, c1 * xP % m), 1)
        if self.curve.x_negative and not bn:
            f = f.conjugate()
        return f

    # -- final exponentiation -----------------------------------------------------------

    def final_exponentiation(self, f):
        """Map a Miller value to the order-r cyclotomic subgroup."""
        if f.is_zero():
            # codelint: ignore[RC301] -- mirrors Python division semantics
            raise ZeroDivisionError("final exponentiation of zero (degenerate pairing input)")
        g = untraced(self._final_exponentiation, f)
        t = RUN.tracer
        if t is not None:
            self.charge_final_exponentiation(t)
        return g

    def _final_exponentiation(self, f):
        f1 = f.conjugate() * f.inverse()              # f^(p^6 - 1)
        f2 = f1.frobenius().frobenius() * f1          # ... ^(p^2 + 1)
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
        pairs = [(P.to_affine(), Q.to_affine()) for P, Q in pairs]
        prod = untraced(self._miller_loops, pairs)
        t = RUN.tracer
        if t is not None:
            self.charge_miller_loops(t, pairs)
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
