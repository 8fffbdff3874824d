"""Signed-digit scalar recoder for the optimized MSM kernels.

Negating a short-Weierstrass point is free (``(x, y) -> (x, -y)``), so a
windowed MSM can use digits in ``[-(2^(c-1) - 1), 2^(c-1)]`` and needs
``2^(c-1)`` buckets a window instead of ``2^c - 1``.
:func:`digit_columns` derives those digits a window at a time — one digit
per scalar per column, trivially alignable across scalars — for the bucket
kernel (:mod:`repro.msm.wnaf`) and the fixed-base batch walk
(:mod:`repro.msm.fixed_base`) alike.  A pure integer transform with an
exact round-trip identity, which the hypothesis suite in
``tests/msm/test_kernel_properties.py`` pins against a row recoder.
"""

from __future__ import annotations

__all__ = ["digit_columns", "signed_windows_len"]


def signed_windows_len(nbits, c):
    """Number of signed ``c``-bit windows that hold any *nbits*-bit scalar.

    One extra position absorbs the final carry of the signed recoding.
    """
    if c < 1:
        raise ValueError(f"window width must be >= 1, got {c}")
    if nbits < 1:
        raise ValueError(f"scalar bit width must be >= 1, got {nbits}")
    return (nbits + c - 1) // c + 1


# codelint: ignore[RC501] -- one column a step, bounded by the window count; callers poll per window
def digit_columns(ks, c):
    """Yield the signed ``c``-bit digit of every non-negative scalar of
    *ks*, window by window until all are spent, least significant first.

    A raw digit above ``2^(c-1)`` becomes ``digit - 2^c`` and a carry into
    the next window, so ``k == sum_i column_i[j] * 2^(c*i)`` for scalar
    ``j``, and at most :func:`signed_windows_len` columns come out.
    """
    ks = list(ks)
    mask, half = (1 << c) - 1, 1 << (c - 1)
    while any(ks):
        column = []
        for i, k in enumerate(ks):
            d = k & mask
            k >>= c
            if d > half:  # borrow: the digit goes negative, the rest carries
                d -= mask + 1
                k += 1
            ks[i] = k
            column.append(d)
        yield column
