"""Dense polynomials over a prime field (coefficient form).

Used by the QAP construction, tests and the ablation benchmarks; the prover's
hot path works directly on int lists through :mod:`repro.poly.ntt`.
Coefficients are stored little-endian (``coeffs[i]`` multiplies ``x^i``) and
normalized (no trailing zeros; the zero polynomial is ``[]``).
"""

from __future__ import annotations

__all__ = ["Polynomial"]


class Polynomial:
    """An immutable dense polynomial over *field*."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        r = field.modulus
        cs = [c % r for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.field = field
        self.coeffs = tuple(cs)

    # -- constructors ----------------------------------------------------------

    @classmethod
    def zero(cls, field):
        return cls(field, [])

    @classmethod
    def one(cls, field):
        return cls(field, [1])

    @classmethod
    def vanishing(cls, field, domain):
        """``Z(x) = x^n - 1`` for an evaluation domain."""
        return cls(field, [-1] + [0] * (domain.size - 1) + [1])

    @classmethod
    def interpolate(cls, field, points):
        """Lagrange interpolation through ``[(x_i, y_i), ...]`` (O(n^2);
        for tests and small inputs — the kernels use the NTT instead)."""
        xs = [x % field.modulus for x, _ in points]
        if len(set(xs)) != len(xs):
            raise ValueError("interpolation points must have distinct x values")
        result = cls.zero(field)
        for i, (xi, yi) in enumerate(points):
            num = cls(field, [yi])
            denom = 1
            for j, (xj, _) in enumerate(points):
                if i == j:
                    continue
                num = num * cls(field, [-xj, 1])
                denom = field.mul(denom, field.sub(xi % field.modulus, xj % field.modulus))
            result = result + num.scale(field.inv(denom))
        return result

    # -- basic properties ----------------------------------------------------------

    @property
    def degree(self):
        """Degree, with the zero polynomial assigned -1."""
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and other.field.modulus == self.field.modulus
            and other.coeffs == self.coeffs
        )

    def __hash__(self):
        return hash((self.field.modulus, self.coeffs))

    def __repr__(self):
        if not self.coeffs:
            return "Polynomial(0)"
        terms = [f"{c}*x^{i}" if i else str(c) for i, c in enumerate(self.coeffs) if c]
        return "Polynomial(" + " + ".join(terms) + ")"

    # -- arithmetic -------------------------------------------------------------------

    def __add__(self, other):
        f = self.field
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = f.add(out[i], c)
        return Polynomial(f, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        f = self.field
        return Polynomial(f, [f.neg(c) for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        f = self.field
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Polynomial.zero(f)
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca == 0:
                continue
            for j, cb in enumerate(b):
                out[i + j] = f.add(out[i + j], f.mul(ca, cb))
        return Polynomial(f, out)

    __rmul__ = __mul__

    def scale(self, k):
        f = self.field
        k %= f.modulus
        return Polynomial(f, [f.mul(c, k) for c in self.coeffs])

    def divmod(self, divisor):
        """Polynomial long division; returns ``(quotient, remainder)``."""
        f = self.field
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        d = list(divisor.coeffs)
        dlead_inv = f.inv(d[-1])
        quot = [0] * max(len(rem) - len(d) + 1, 0)
        for i in range(len(rem) - len(d), -1, -1):
            c = f.mul(rem[i + len(d) - 1], dlead_inv)
            quot[i] = c
            if c:
                for j, dc in enumerate(d):
                    rem[i + j] = f.sub(rem[i + j], f.mul(c, dc))
        return Polynomial(f, quot), Polynomial(f, rem)

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def __mod__(self, other):
        return self.divmod(other)[1]

    def evaluate(self, x):
        """Horner evaluation at the integer point *x*."""
        f = self.field
        x %= f.modulus
        acc = 0
        for c in reversed(self.coeffs):
            acc = f.add(f.mul(acc, x), c)
        return acc
