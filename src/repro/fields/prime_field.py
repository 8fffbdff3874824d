"""Prime-field arithmetic contexts.

The snarkjs/circom stack the paper profiles spends most of its compute time
in multi-limb "bigint" modular arithmetic (Table IV).  This module is the
equivalent layer here: every operation reports a ``bigint_<op>_<limbs>``
primitive to the active tracer so the code/memory/top-down analyses see the
same instruction structure a 4-limb (BN254) or 6-limb (BLS12-381) modular
multiply produces on x86.
"""

from __future__ import annotations

import numbers

from repro.context import RUN

__all__ = ["PrimeField"]


class PrimeField:
    """Arithmetic context for the prime field ``F_p``.

    Methods operate on plain integers in ``[0, p)`` — this is the hot path
    used by the polynomial, MSM and witness kernels, and the only API: the
    extension tower (:mod:`repro.fields.extensions`) builds on the same
    integers.

    Parameters
    ----------
    modulus:
        The field characteristic; must be an odd prime (primality is the
        caller's responsibility — the curve parameter sets are vetted).
    name:
        Short label used in ``repr`` and error messages, e.g. ``"bn254.Fr"``.
    """

    __slots__ = (
        "modulus", "name", "bits", "limbs", "nbytes",
        "_add_tag", "_sub_tag", "_mul_tag", "_sqr_tag", "_inv_tag", "_neg_tag",
    )

    def __init__(self, modulus, name):
        if modulus < 3 or modulus % 2 == 0:
            raise ValueError(f"{name}: modulus must be an odd prime, got {modulus}")
        self.modulus = modulus
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
        return a * b % self.modulus

    def sqr(self, a):
        """Return ``a^2 mod p``."""
        t = RUN.tracer
        if t is not None:
            t.op(self._sqr_tag)
        return a * a % self.modulus

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
        return pow(a, -1, self.modulus)

    def reduce(self, a):
        """Map an arbitrary integer into ``[0, p)``."""
        return a % self.modulus

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
        return acc % self.modulus

    # -- batch helpers ---------------------------------------------------------

    def batch_inv(self, xs):
        """Invert every element of *xs* with Montgomery's trick.

        Uses ``3n`` multiplications and a single inversion, the standard
        way real provers amortize inversions; three of them are spare (the
        first prefix product and the first output multiply by one, and the
        last backward product is never read).  A traced setup counts all
        ``3n`` (the modeled setup bandwidth of ``results/table3.txt`` is
        calibrated on them), so the three stay.  Raises
        ``ZeroDivisionError`` if any element is zero.
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

    def check_publics(self, values, count):
        """Raise ``ValueError`` unless *values* holds *count* public inputs,
        each a reduced element: an integer in ``[0, p)``, ``bool`` excluded.

        Any ``numbers.Integral`` counts as an integer.  The verifiers' guard:
        a verifier that reduced ``x + p`` instead would accept a proof for
        ``x`` under it.
        """
        if len(values) != count:
            raise ValueError(f"expected {count} public inputs, got {len(values)}")
        for i, v in enumerate(values):
            if (isinstance(v, bool) or not isinstance(v, numbers.Integral)
                    or not 0 <= v < self.modulus):
                raise ValueError(f"public inputs[{i}] is not a reduced "
                                 f"{self.name} element: {v!r}")
