"""Fixed-base scalar multiplication: a stored window table and a batch walk.

The trusted setup multiplies one base point (the generator, or ``Z(tau)/
delta`` style derived points) by thousands of distinct scalars.  A one-time
table of ``(2^w - 1)`` multiples per w-bit window reduces a multiplication
to at most ``ceil(bits/w)`` mixed additions.  That stored table serves the
single :meth:`FixedBaseTable.mul` and every *traced* call; its build and
its per-scalar walks are instrumented, so the large sequential table (the
reason the setup stage's loads dwarf its stores by ~10x in Fig. 5: written
once, read for every scalar) has a real footprint in the traced address
space.  An untraced :meth:`FixedBaseTable.mul_many` stores no table: it
walks all scalars together, window by window, in affine coordinates over
rows it streams and drops (docs/KERNELS.md, "Fixed-base batch walk").
"""

from __future__ import annotations

from contextlib import nullcontext

from repro.context import RUN
from repro.msm.batch_affine import batch_affine_add
from repro.msm.recode import signed_windows_len

__all__ = ["FixedBaseTable"]


def _walk_width(bits, n):
    """Signed window width of the batch walk over *n* live scalars: every
    window costs one addition a scalar plus its ``2^(w-1)``-entry row."""
    return min(range(1, 17),
               key=lambda w: signed_windows_len(bits, w) * (n + (1 << (w - 1))))


def _digit_columns(ks, w):
    """Yield the signed ``w``-bit digit of every scalar of *ks*, window by
    window until all are spent: the columns of the (zero-padded)
    :func:`repro.msm.recode.signed_windows` rows, one at a time."""
    ks = list(ks)
    mask, half = (1 << w) - 1, 1 << (w - 1)
    while any(ks):
        column = []
        for i, k in enumerate(ks):
            d = k & mask
            k >>= w
            if d > half:  # borrow: the digit goes negative, the rest carries
                d -= mask + 1
                k += 1
            ks[i] = k
            column.append(d)
        yield column


class FixedBaseTable:
    """Precomputed window table for one base point.

    Parameters
    ----------
    base:
        A group :class:`~repro.curves.curve.Point`.
    width:
        Window width in bits of the stored table — what :meth:`mul` and
        traced calls walk (4 is a good default for the setup sizes the
        harness sweeps; 8 halves the adds per scalar at 16x the table).
        The untraced batch walk sizes its own streamed rows.
    bits:
        Scalar bit width to support (defaults to the group order's width);
        a reduced scalar that does not fit raises ``ValueError``.
    """

    def __init__(self, base, width=4, bits=None):
        if width < 1 or width > 16:
            raise ValueError(f"window width must be in [1, 16], got {width}")
        if bits is not None and bits < 1:
            # Without this guard, bits=0 silently coerced to the default
            # (``bits or ...``) and a negative width built an *empty* table
            # whose ``mul`` returned infinity for every scalar.
            raise ValueError(f"table bit width must be >= 1, got {bits}")
        group = base.group
        self.group = group
        self.base = base
        self.width = width
        self.bits = bits or group.order.bit_length()
        self.n_windows = (self.bits + width - 1) // width
        per_window = (1 << width) - 1

        t = RUN.tracer
        point_bytes = self._point_bytes = 2 * group.ops.coord_bytes
        self._table_base = 0
        if t is not None:
            self._table_base = t.malloc(self.n_windows * per_window * point_bytes)

        # table[k][d-1] holds (d * 2^(k*width)) * base, normalized to affine
        # so the per-scalar walk uses cheap mixed additions.
        table = []
        window_base = base
        with (t.region("fixed_base_table_build", parallel=True, items=self.n_windows)
              if t is not None else nullcontext()):
            for _k in range(self.n_windows):
                row = []
                acc = group.infinity()
                for _d in range(per_window):
                    acc = acc + window_base
                    row.append(acc)
                table.append([p.to_affine() for p in row])
                window_base = acc + window_base  # == 2^width * previous base
                if t is not None:
                    t.mem_block(self._table_base, per_window * point_bytes, write=True)
        self._table = table

    def _reduced(self, scalar):
        """``scalar mod order``, which must fit the table's ``bits``."""
        k = scalar % self.group.order
        if k >> self.bits:
            raise ValueError(f"scalar {scalar} does not fit in {self.bits} bits")
        return k

    def mul(self, scalar):
        """Return ``scalar * base`` using at most ``n_windows`` additions."""
        # Cooperative deadline poll per scalar — one table walk is the
        # kernel's smallest unit of work (a traced mul_many inherits it).
        if RUN.deadline is not None:
            RUN.deadline.check()
        k = self._reduced(scalar)
        if k == 0:
            return self.group.infinity()
        t = RUN.tracer
        mask = (1 << self.width) - 1
        acc = self.group.infinity()
        per_window = mask
        for w in range(self.n_windows):
            digit = (k >> (w * self.width)) & mask
            if t is not None:
                t.op("fixed_base_digit")
            if digit:
                entry = self._table[w][digit - 1]
                if t is not None:
                    addr = self._table_base + (w * per_window + digit - 1) * self._point_bytes
                    t.mem_load(addr, self._point_bytes)
                if entry is not None:
                    acc = acc.add_affine(*entry)
        return acc

    def mul_many(self, scalars):
        """Multiply the base by every scalar.

        Under a tracer: the per-scalar Jacobian walk of the stored table in
        one parallel region (the pinning rule, docs/KERNELS.md).  Untraced:
        the window-major batch walk — per window, the row ``d * 2^(w*j) *
        base`` grows by doubling its length a wave at a time, every live
        accumulator adds the entry its signed digit selects in one wave
        behind one shared inversion, and the row is dropped; the products
        are ``Z == 1`` by construction.
        """
        t = RUN.tracer
        if t is not None:
            with t.region("fixed_base_mul_many", parallel=True, items=len(scalars)):
                return [self.mul(k) for k in scalars]
        group, ops = self.group, self.group.ops
        out = [group.infinity() for _ in scalars]
        live = {i: k for i, k in enumerate(map(self._reduced, scalars)) if k}
        if not live:
            return out
        w = _walk_width(self.bits, len(live))
        accs, row = [None] * len(live), [self.base.to_affine()]
        for column in _digit_columns(live.values(), w):
            while len(row) < 1 << (w - 1):
                row += batch_affine_add(ops, row, [row[-1]] * len(row))
            picks = []
            for d in column:
                pt = row[abs(d) - 1] if d else None
                # Negating the entry of a negative digit is free in affine.
                picks.append((pt[0], ops.neg(pt[1])) if d < 0 and pt else pt)
            accs = batch_affine_add(ops, accs, picks)
            row = batch_affine_add(ops, row[-1:], row[-1:])  # 2^w * this base
        for i, acc in zip(live, accs):
            if acc is not None:
                out[i] = group.point_unchecked(*acc)
        return out
