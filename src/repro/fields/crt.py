"""CRT / residue-number-system decomposition of big-integer arithmetic.

Key Takeaway 3 of the paper: *"bigint can be optimized in CPUs by changing
representations to such as the Chinese Remainder Theorem (CRT), which
converts bigint numbers to a set of int numbers, increasing parallel
computation"*.  This module makes that concrete: a 254/381-bit field
element becomes a tuple of ~61-bit residues; one wide multiplication with
a serial carry chain becomes ``k`` *independent* single-word
multiplications (the parallelism hardware CRT units exploit), plus a
reconstruction when the value must leave the RNS domain.

Scope note: this is the *decomposition* the takeaway describes — products
are exact in the RNS (the dynamic range covers ``p^2``) and reduction
happens at reconstruction.  A production pipeline would keep values in RNS
across many operations with Montgomery base extension; that machinery is
out of scope and documented as such.
"""

from __future__ import annotations

__all__ = ["RNSContext", "is_prime_u64"]

#: Width of one residue lane: every modulus is a prime below ``2^WORD_BITS``.
WORD_BITS = 61

#: Deterministic Miller-Rabin witnesses, exact for all n < 3.3 * 10^24.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime_u64(n):
    """Deterministic Miller-Rabin primality for word-sized integers."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _find_moduli(count):
    """The *count* largest primes below ``2^WORD_BITS`` (pairwise coprime
    by primality)."""
    out = []
    candidate = (1 << WORD_BITS) - 1
    while len(out) < count:
        if is_prime_u64(candidate):
            out.append(candidate)
        candidate -= 2
    return out


class RNSContext:
    """Residue arithmetic for one prime field.

    The modulus set is sized so its product exceeds ``p^2 * slack``: a
    single product of reduced elements is exact in the RNS and can be
    reconstructed then reduced mod ``p``.
    """

    def __init__(self, field):
        self.field = field
        p = field.modulus
        need = p * p * 4  # slack for one addition on top of a product
        count = 1
        while (1 << (WORD_BITS * count)) < need:
            count += 1
        count += 1  # margin below 2^WORD_BITS for non-power-of-two primes
        self.moduli = _find_moduli(count)
        self.M = 1
        for m in self.moduli:
            self.M *= m
        if self.M <= need:
            raise AssertionError("modulus set too small; widen the margin")
        # Precompute CRT reconstruction constants: M_i = M/m_i, y_i = M_i^-1 mod m_i.
        self._Mi = [self.M // m for m in self.moduli]
        self._yi = [pow(Mi % m, -1, m) for Mi, m in zip(self._Mi, self.moduli)]

    @property
    def lanes(self):
        """Number of independent word-sized lanes one operation fans into."""
        return len(self.moduli)

    # -- conversions -------------------------------------------------------------

    def to_rns(self, x):
        """Decompose an integer into its residue tuple."""
        if x < 0:
            raise ValueError("RNS demonstration handles non-negative values")
        return tuple(x % m for m in self.moduli)

    def from_rns(self, residues):
        """CRT reconstruction back to the unique integer below ``M``."""
        if len(residues) != self.lanes:
            raise ValueError(f"expected {self.lanes} residues, got {len(residues)}")
        acc = 0
        for r, m, Mi, yi in zip(residues, self.moduli, self._Mi, self._yi):
            acc += r * yi % m * Mi
        return acc % self.M

    # -- lane-parallel arithmetic -----------------------------------------------------

    def add(self, a, b):
        """Lane-wise addition: ``lanes`` independent word additions."""
        return tuple((x + y) % m for x, y, m in zip(a, b, self.moduli))

    def mul(self, a, b):
        """Lane-wise multiplication: ``lanes`` *independent* word
        multiplications — the parallelism Key Takeaway 3 points at."""
        return tuple(x * y % m for x, y, m in zip(a, b, self.moduli))

    def field_mul(self, x, y):
        """A full field multiplication through the RNS domain:
        decompose, multiply lane-wise, reconstruct, reduce mod p."""
        prod = self.mul(self.to_rns(x % self.field.modulus),
                        self.to_rns(y % self.field.modulus))
        return self.from_rns(prod) % self.field.modulus

    # -- cost accounting (for the ablation bench) ----------------------------------------

    def cost_summary(self):
        """Dependency structure of one multiplication, direct vs RNS."""
        limbs = self.field.limbs
        return {
            "direct_word_muls": limbs * limbs,
            "direct_critical_path_muls": limbs * limbs,  # carry chain serializes
            "rns_word_muls": self.lanes,
            "rns_critical_path_muls": 1,  # lanes are independent
            "reconstruction_word_ops": 3 * self.lanes,
            "lanes": self.lanes,
        }
