"""Reusable sub-circuits (circomlib's role).

Includes the paper's benchmark circuit — ``exponentiate`` (Fig. 2: ``y =
x^e`` built from ``e`` multiplication gates, so constraint count equals the
exponent) — plus the standard gadget toolbox used by the domain examples:
bit decomposition, comparators, multiplexers, boolean algebra, and a
MiMC-style permutation for hash-preimage circuits.
"""

from __future__ import annotations

__all__ = [
    "assert_boolean",
    "assert_nonzero",
    "divide",
    "dot_product",
    "exponentiate",
    "is_equal",
    "is_zero",
    "less_than",
    "logical_and",
    "logical_not",
    "logical_or",
    "logical_xor",
    "mimc_permutation",
    "mimc_hash_chain",
    "mux",
    "num_to_bits",
    "select",
]


def exponentiate(builder, x, exponent):
    """The paper's benchmark circuit: ``y = x^exponent``.

    Built exactly as Fig. 2 describes — a first ``w0 = x * 1`` gate followed
    by ``exponent - 1`` chained multiplications — so the number of
    multiplication constraints equals *exponent*.
    """
    if exponent < 1:
        raise ValueError(f"exponent must be >= 1, got {exponent}")
    acc = builder.identity_gate(x)  # w0 = x * 1
    for _ in range(exponent - 1):
        acc = builder.mul(x, acc)
    return acc


def assert_boolean(builder, s):
    """Constrain ``s in {0, 1}`` via ``s * (s - 1) == 0``."""
    builder.assert_mul(s, s - 1, builder.constant(0))


def num_to_bits(builder, x, n_bits):
    """Decompose *x* into *n_bits* boolean wires (little-endian).

    The bits are produced by a hint and pinned down by booleanity
    constraints plus the recomposition equality — circom's ``Num2Bits``.
    """
    def _hint(fr, values):
        v = values[0]
        return [(v >> i) & 1 for i in range(n_bits)]

    bits = builder.hint(_hint, [x], n_bits, label="bit")
    acc = builder.constant(0)
    for i, b in enumerate(bits):
        assert_boolean(builder, b)
        acc = acc + b.scale(1 << i)
    builder.assert_equal(acc, x)
    return bits


def is_zero(builder, x):
    """Return a signal that is 1 iff ``x == 0`` (circom's ``IsZero``).

    Uses the classic inverse hint: ``out = 1 - x * inv`` with ``x * out == 0``.
    """
    def _hint(fr, values):
        v = values[0]
        return [0 if v == 0 else fr.inv(v)]

    (inv,) = builder.hint(_hint, [x], 1, label="inv")
    out = builder.one() - builder.mul(x, inv)
    out = builder.make_wire(out)
    builder.assert_mul(x, out, builder.constant(0))
    return out


def is_equal(builder, a, b):
    """Return a signal that is 1 iff ``a == b``."""
    return is_zero(builder, a - b)


def less_than(builder, a, b, n_bits):
    """Return a signal that is 1 iff ``a < b`` for *n_bits*-wide values.

    Standard trick: decompose ``a - b + 2^n`` into ``n+1`` bits; the top bit
    is 1 exactly when no borrow occurred (``a >= b``), so the output is its
    complement.  Callers must ensure both operands fit in *n_bits*.
    """
    shifted = a - b + (1 << n_bits)
    bits = num_to_bits(builder, shifted, n_bits + 1)
    return builder.one() - bits[n_bits]


def mux(builder, selector, if_one, if_zero):
    """Return ``if_one`` when ``selector == 1`` else ``if_zero``.

    The selector must already be constrained boolean.
    """
    return builder.mul(selector, if_one - if_zero) + if_zero


def logical_and(builder, a, b):
    """Boolean AND (operands must be boolean)."""
    return builder.mul(a, b)


def logical_or(builder, a, b):
    """Boolean OR (operands must be boolean)."""
    return a + b - builder.mul(a, b)


def logical_xor(builder, a, b):
    """Boolean XOR (operands must be boolean)."""
    return a + b - builder.mul(a, b).scale(2)


def logical_not(builder, a):
    """Boolean NOT (operand must be boolean)."""
    return builder.one() - a


#: Default number of MiMC rounds; enough to make the permutation interesting
#: as a workload while keeping example circuits small.
MIMC_ROUNDS = 16


def _mimc_constants(fr, n_rounds, seed=0x6D696D63):  # "mimc"
    """Deterministic round constants derived by squaring a seed."""
    out = []
    c = seed % fr.modulus
    for _ in range(n_rounds):
        c = (c * c + 7) % fr.modulus
        out.append(c)
    return out


def mimc_permutation(builder, x, key, n_rounds=MIMC_ROUNDS):
    """A MiMC-like cubing permutation: ``x -> (x + key + c_i)^3`` per round.

    Each round costs two multiplication constraints (square then cube).
    """
    constants = _mimc_constants(builder.fr, n_rounds)
    acc = x
    for c in constants:
        t = acc + key + c
        sq = builder.mul(t, t)
        acc = builder.mul(sq, t)
    return acc + key


def mimc_hash_chain(builder, values, key=None):
    """Miyaguchi–Preneel-style chain of :func:`mimc_permutation` over
    *values*; returns the chain digest signal."""
    if key is None:
        key = builder.constant(0)
    acc = builder.constant(0)
    for v in values:
        acc = mimc_permutation(builder, v, acc + key) + v
    return acc


def assert_nonzero(builder, x):
    """Constrain ``x != 0`` (via the existence of an inverse hint)."""
    def _hint(fr, values):
        v = values[0]
        return [fr.inv(v) if v else 0]

    (inv,) = builder.hint(_hint, [x], 1, label="nzinv")
    builder.assert_mul(x, inv, builder.one())


def divide(builder, num, den):
    """Return ``num / den`` as a signal; constrains ``den != 0``.

    The quotient is produced by a hint and pinned down with
    ``q * den == num`` plus the non-zero check on the denominator.
    """
    def _hint(fr, values):
        n, d = values
        return [fr.mul(n, fr.inv(d)) if d else 0]

    (q,) = builder.hint(_hint, [num, den], 1, label="quot")
    assert_nonzero(builder, den)
    builder.assert_mul(q, den, num)
    return q


def select(builder, index, options, n_bits=None):
    """Array lookup: return ``options[index]`` for a signal index.

    Builds a one-hot selector from :func:`is_equal` per option — O(k)
    constraints for k options — and constrains the index to be in range
    (the one-hot selectors must sum to 1).
    """
    if not options:
        raise ValueError("select needs at least one option")
    acc = builder.constant(0)
    onehot_sum = builder.constant(0)
    for i, opt in enumerate(options):
        hit = is_equal(builder, index, builder.constant(i))
        onehot_sum = onehot_sum + hit
        acc = acc + builder.mul(hit, opt)
    builder.assert_equal(onehot_sum, builder.constant(1))
    return acc


def dot_product(builder, xs, ys):
    """Inner product of two equal-length signal vectors (len(xs) gates)."""
    if len(xs) != len(ys):
        raise ValueError(f"length mismatch: {len(xs)} vs {len(ys)}")
    acc = builder.constant(0)
    for a, b in zip(xs, ys):
        acc = acc + builder.mul(a, b)
    return acc
