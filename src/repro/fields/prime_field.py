"""Prime-field arithmetic contexts and wrapped field elements.

The snarkjs/circom stack the paper profiles spends most of its compute time
in multi-limb "bigint" modular arithmetic (Table IV).  This module is the
equivalent layer here: every operation reports a ``bigint_<op>_<limbs>``
primitive to the active tracer so the code/memory/top-down analyses see the
same instruction structure a 4-limb (BN254) or 6-limb (BLS12-381) modular
multiply produces on x86.
"""

from __future__ import annotations

from repro.context import RUN
from repro.fields import bigint

__all__ = ["PrimeField", "Fp"]


class PrimeField:
    """Arithmetic context for the prime field ``F_p``.

    Methods operate on plain integers in ``[0, p)`` — this is the hot path
    used by the polynomial, MSM and witness kernels.  Use :meth:`element` /
    :meth:`zero` / :meth:`one` to obtain wrapped :class:`Fp` values for the
    operator-based API.

    Parameters
    ----------
    modulus:
        The field characteristic; must be an odd prime (primality is the
        caller's responsibility — the curve parameter sets are vetted).
    name:
        Short label used in ``repr`` and error messages, e.g. ``"bn254.Fr"``.
    """

    __slots__ = (
        "modulus", "name", "bits", "limbs", "nbytes", "_mod",
        "_add_tag", "_sub_tag", "_mul_tag", "_sqr_tag", "_inv_tag", "_neg_tag",
    )

    def __init__(self, modulus, name):
        if modulus < 3 or modulus % 2 == 0:
            raise ValueError(f"{name}: modulus must be an odd prime, got {modulus}")
        self.modulus = modulus
        # The modulus in the active bigint backend's native type
        # (``REPRO_BIGINT=gmpy2`` lifts it to ``mpz`` so the hot ``%`` runs
        # in GMP; the default backend keeps a plain int — zero overhead).
        self._mod = bigint.wrap_modulus(modulus)
        self.name = name
        self.bits = modulus.bit_length()
        self.limbs = (self.bits + 63) // 64
        self.nbytes = self.limbs * 8
        l = self.limbs
        self._add_tag = f"bigint_add_{l}"
        self._sub_tag = f"bigint_sub_{l}"
        self._mul_tag = f"bigint_mul_{l}"
        self._sqr_tag = f"bigint_sqr_{l}"
        self._inv_tag = f"bigint_inv_{l}"
        self._neg_tag = f"bigint_add_{l}"  # negation costs one subtract

    def __repr__(self):
        return f"PrimeField({self.name}, {self.bits} bits)"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.modulus == self.modulus

    def __hash__(self):
        return hash(("PrimeField", self.modulus))

    # -- raw integer arithmetic (hot path) ------------------------------------

    def add(self, a, b):
        """Return ``(a + b) mod p`` for reduced inputs."""
        t = RUN.tracer
        if t is not None:
            t.op(self._add_tag)
        c = a + b
        return c - self.modulus if c >= self.modulus else c

    def sub(self, a, b):
        """Return ``(a - b) mod p`` for reduced inputs."""
        t = RUN.tracer
        if t is not None:
            t.op(self._sub_tag)
        c = a - b
        return c + self.modulus if c < 0 else c

    def neg(self, a):
        """Return ``-a mod p``."""
        t = RUN.tracer
        if t is not None:
            t.op(self._neg_tag)
        return self.modulus - a if a else 0

    def mul(self, a, b):
        """Return ``a * b mod p``."""
        t = RUN.tracer
        if t is not None:
            t.op(self._mul_tag)
        return a * b % self._mod

    def sqr(self, a):
        """Return ``a^2 mod p``."""
        t = RUN.tracer
        if t is not None:
            t.op(self._sqr_tag)
        return a * a % self._mod

    def inv(self, a):
        """Return the multiplicative inverse of ``a`` (raises on zero).

        Inversions are the field's expensive, latency-bound operation, so —
        unlike add/mul, whose per-op counts come only from the tracer — each
        one is also metered (``repro_field_inv_total``): the guard check is
        noise next to the extended-gcd ``pow``.
        """
        if a == 0:
            # codelint: ignore[RC301] -- mirrors Python division semantics
            raise ZeroDivisionError(f"{self.name}: inversion of zero")
        t = RUN.tracer
        if t is not None:
            t.op(self._inv_tag)
        m = RUN.metrics
        if m is not None:
            m.inc("repro_field_inv_total")
        return bigint.invmod(a, self._mod)

    def div(self, a, b):
        """Return ``a / b mod p``."""
        return self.mul(a, self.inv(b))

    def pow(self, a, e):
        """Return ``a^e mod p`` (``e`` may be any integer; 0^0 == 1)."""
        if e < 0:
            return bigint.powmod(self.inv(a), -e, self._mod)
        t = RUN.tracer
        if t is not None:
            # Square-and-multiply: ~bits squarings + ~bits/2 multiplies.
            nbits = max(e.bit_length(), 1)
            t.op(self._sqr_tag, nbits)
            t.op(self._mul_tag, nbits // 2)
        return bigint.powmod(a, e, self._mod)

    def reduce(self, a):
        """Map an arbitrary integer into ``[0, p)``."""
        return a % self._mod

    def lincomb(self, pairs, const=0):
        """Return ``(const + sum(c * v for c, v in pairs)) mod p`` lazily.

        Lazy-reduction accumulation (docs/KERNELS.md): the products are
        summed as exact integers and reduced **once** at the end, replacing
        ``n`` interleaved ``% p`` reductions with one.  Exact integer
        arithmetic makes the result identical to the per-term reduced loop.

        The traced path reports the same ``n`` multiply + ``n`` add
        primitive counts the per-op loop it replaces would have reported,
        so modeled analyses are unchanged.
        """
        acc = const
        n = 0
        for c, v in pairs:
            acc += c * v
            n += 1
        t = RUN.tracer
        if t is not None:
            if n:
                t.op(self._mul_tag, n)
                t.op(self._add_tag, n)
        return acc % self._mod

    # -- batch helpers ---------------------------------------------------------

    def batch_inv(self, xs):
        """Invert every element of *xs* with Montgomery's trick.

        Uses ``3(n-1)`` multiplications and a single inversion, the standard
        way real provers amortize inversions.  Raises ``ZeroDivisionError``
        if any element is zero.
        """
        xs = list(xs)
        if not xs:
            return []
        m = RUN.metrics
        if m is not None:
            m.observe("repro_field_batch_inv_size", len(xs))
        prefix = [0] * len(xs)
        acc = 1
        for i, x in enumerate(xs):
            if x == 0:
                # codelint: ignore[RC301] -- mirrors Python division semantics
                raise ZeroDivisionError(f"{self.name}: batch inversion of zero at index {i}")
            prefix[i] = acc
            acc = self.mul(acc, x)
        inv_acc = self.inv(acc)
        out = [0] * len(xs)
        for i in range(len(xs) - 1, -1, -1):
            out[i] = self.mul(inv_acc, prefix[i])
            inv_acc = self.mul(inv_acc, xs[i])
        return out

    # -- square roots ----------------------------------------------------------

    def legendre(self, a):
        """Return the Legendre symbol of *a*: 1, -1, or 0."""
        if a % self.modulus == 0:
            return 0
        s = pow(a, (self.modulus - 1) // 2, self.modulus)
        return 1 if s == 1 else -1

    def sqrt(self, a):
        """Return a square root of *a*, or ``None`` if *a* is a non-residue.

        Tonelli–Shanks; fast path for ``p ≡ 3 (mod 4)`` (both curve base
        fields used here are of this form, but the general path keeps the
        field type reusable).
        """
        p = self.modulus
        a %= p
        if a == 0:
            return 0
        if self.legendre(a) != 1:
            return None
        if p % 4 == 3:
            return pow(a, (p + 1) // 4, p)
        # General Tonelli–Shanks.
        q, s = p - 1, 0
        while q % 2 == 0:
            q //= 2
            s += 1
        z = 2
        while self.legendre(z) != -1:
            z += 1
        m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
        while t != 1:
            i, t2 = 0, t
            while t2 != 1:
                t2 = t2 * t2 % p
                i += 1
            b = pow(c, 1 << (m - i - 1), p)
            m, c = i, b * b % p
            t = t * c % p
            r = r * b % p
        return r

    # -- randomness and encoding -----------------------------------------------

    def rand(self, rng):
        """Draw a uniform field element using the supplied ``random.Random``."""
        return rng.randrange(self.modulus)

    def rand_nonzero(self, rng):
        """Draw a uniform *non-zero* field element."""
        return rng.randrange(1, self.modulus)

    def to_bytes(self, a):
        """Serialize a reduced element as fixed-width little-endian bytes."""
        return int(a).to_bytes(self.nbytes, "little")

    def from_bytes(self, data):
        """Parse a little-endian encoding produced by :meth:`to_bytes`."""
        v = int.from_bytes(data, "little")
        if v >= self.modulus:
            raise ValueError(f"{self.name}: encoding {v} is not a reduced element")
        return v

    # -- wrapped elements --------------------------------------------------------

    def element(self, value):
        """Wrap *value* (any integer) as an :class:`Fp` element of this field."""
        return Fp(self, value % self.modulus)

    def zero(self):
        """The additive identity as a wrapped element."""
        return Fp(self, 0)

    def one(self):
        """The multiplicative identity as a wrapped element."""
        return Fp(self, 1)


class Fp:
    """A single element of a :class:`PrimeField`, with operator overloads.

    This wrapper exists for API ergonomics and for the extension tower; the
    numeric kernels use the raw-integer :class:`PrimeField` methods directly.
    Mixed ``Fp``/``int`` arithmetic is supported, mixing elements of
    different fields raises ``TypeError``.
    """

    __slots__ = ("field", "value")

    def __init__(self, field, value):
        self.field = field
        self.value = value

    def _coerce(self, other):
        if isinstance(other, Fp):
            if other.field.modulus != self.field.modulus:
                raise TypeError(f"cannot mix {self.field.name} and {other.field.name} elements")
            return other.value
        if isinstance(other, int):
            return other % self.field.modulus
        return NotImplemented

    def __add__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return Fp(self.field, self.field.add(self.value, v))

    __radd__ = __add__

    def __sub__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return Fp(self.field, self.field.sub(self.value, v))

    def __rsub__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return Fp(self.field, self.field.sub(v, self.value))

    def __mul__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return Fp(self.field, self.field.mul(self.value, v))

    __rmul__ = __mul__

    def __truediv__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return Fp(self.field, self.field.div(self.value, v))

    def __rtruediv__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return Fp(self.field, self.field.div(v, self.value))

    def __pow__(self, e):
        return Fp(self.field, self.field.pow(self.value, e))

    def __neg__(self):
        return Fp(self.field, self.field.neg(self.value))

    def inverse(self):
        """Multiplicative inverse (raises ``ZeroDivisionError`` on zero)."""
        return Fp(self.field, self.field.inv(self.value))

    def sqrt(self):
        """A square root of this element, or ``None`` for non-residues."""
        r = self.field.sqrt(self.value)
        return None if r is None else Fp(self.field, r)

    def __eq__(self, other):
        if isinstance(other, Fp):
            return self.field.modulus == other.field.modulus and self.value == other.value
        if isinstance(other, int):
            return self.value == other % self.field.modulus
        return NotImplemented

    def __hash__(self):
        return hash((self.field.modulus, self.value))

    def __bool__(self):
        return self.value != 0

    def __int__(self):
        return self.value

    def __repr__(self):
        return f"Fp<{self.field.name}>({self.value})"
