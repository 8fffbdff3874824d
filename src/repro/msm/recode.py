"""Signed-digit scalar recoder for the optimized MSM kernels.

:func:`signed_windows` halves the bucket count of a windowed MSM by
exploiting the fact that negating a short-Weierstrass point is free
(``(x, y) -> (x, -y)``): fixed-width windows with digits in
``[-(2^(c-1) - 1), 2^(c-1)]``, one digit per window position (dense,
trivially alignable across scalars).  The fixed-base batch walk
(:mod:`repro.msm.fixed_base`) derives the same digits a window at a time.
A pure integer transform with an exact round-trip identity, which the
hypothesis suite in ``tests/msm/test_kernel_properties.py`` pins.
"""

from __future__ import annotations

__all__ = ["signed_windows", "signed_windows_len"]


def signed_windows_len(nbits, c):
    """Number of digits :func:`signed_windows` emits for *nbits*-bit scalars.

    One extra position absorbs the final carry of the signed recoding.
    """
    if c < 1:
        raise ValueError(f"window width must be >= 1, got {c}")
    if nbits < 1:
        raise ValueError(f"scalar bit width must be >= 1, got {nbits}")
    return (nbits + c - 1) // c + 1


# codelint: ignore[RC501] -- pure integer recoder, bounded by n_digits; callers poll per window pass
def signed_windows(k, c, n_digits):
    """Recode non-negative *k* into *n_digits* signed ``c``-bit window digits.

    Digits lie in ``[-(2^(c-1) - 1), 2^(c-1)]`` and satisfy
    ``k == sum_i digits[i] * 2^(c*i)`` exactly.  A raw digit above
    ``2^(c-1)`` is replaced by ``digit - 2^c`` and a carry into the next
    window, so only ``2^(c-1)`` bucket slots are ever referenced (half of
    the unsigned kernel's ``2^c - 1``).

    *n_digits* must come from :func:`signed_windows_len` for the widest
    scalar in the batch so every scalar recodes to the same shape.
    """
    if k < 0:
        raise ValueError(f"signed_windows expects a non-negative scalar, got {k}")
    mask = (1 << c) - 1
    half = 1 << (c - 1)
    full = 1 << c
    digits = [0] * n_digits
    carry = 0
    for i in range(n_digits):
        d = ((k >> (c * i)) & mask) + carry
        if d > half:
            d -= full
            carry = 1
        else:
            carry = 0
        digits[i] = d
    if carry or k >> (c * n_digits):
        raise ValueError(
            f"scalar {k} does not fit in {n_digits} signed {c}-bit windows"
        )
    return digits
