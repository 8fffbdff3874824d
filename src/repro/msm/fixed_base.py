"""Fixed-base scalar multiplication: a batch walk, and the traced table walk.

The trusted setup multiplies one base point by thousands of distinct
scalars.  Untraced, :meth:`FixedBaseTable.mul_many` walks them all window
by window in affine coordinates over rows it streams and drops
(docs/KERNELS.md, "Fixed-base batch walk"); nothing is stored.  The stored
table of ``(2^w - 1)`` multiples per w-bit window is the traced walk's
alone (the pinning rule): its build and per-scalar walks are instrumented,
so the large sequential table (why setup's loads dwarf its stores ~10x in
Fig. 5: written once, read for every scalar) has a traced footprint.
"""

from __future__ import annotations

from repro.context import RUN
from repro.msm.batch_affine import batch_affine_add
from repro.msm.recode import digit_columns, signed_windows_len

__all__ = ["FixedBaseTable"]


def _walk_width(bits, n):
    """Signed window width of the batch walk over *n* live scalars: every
    window costs one addition a scalar plus its ``2^(w-1)``-entry row."""
    return min(range(1, 17),
               key=lambda w: signed_windows_len(bits, w) * (n + (1 << (w - 1))))


class FixedBaseTable:
    """One base point, many scalars.

    Parameters
    ----------
    base:
        A group :class:`~repro.curves.curve.Point`.
    width:
        Window width in bits of the stored table the traced walk reads;
        it is built under a tracer only, at construction or on the first
        traced call.  The untraced batch walk sizes its own streamed rows.
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
        self.group = base.group
        self.base = base
        self.width = width
        self.bits = bits or self.group.order.bit_length()
        self.n_windows = (self.bits + width - 1) // width
        self._table = None
        if RUN.tracer is not None:
            self._build(RUN.tracer)

    def _build(self, t):
        """Store the traced walk's table in *t*'s address space, once."""
        if self._table is not None:
            return
        group = self.group
        per_window = (1 << self.width) - 1
        point_bytes = self._point_bytes = 2 * group.ops.coord_bytes
        self._table_base = t.malloc(self.n_windows * per_window * point_bytes)
        # table[k][d-1] holds (d * 2^(k*width)) * base, normalized to affine
        # so the per-scalar walk uses cheap mixed additions.
        table = []
        window_base = self.base
        with t.region("fixed_base_table_build", parallel=True, items=self.n_windows):
            for _k in range(self.n_windows):
                row = []
                acc = group.infinity()
                for _d in range(per_window):
                    acc = acc + window_base
                    row.append(acc)
                table.append([p.to_affine() for p in row])
                window_base = acc + window_base  # == 2^width * previous base
                t.mem_block(self._table_base, per_window * point_bytes, write=True)
        self._table = table

    def _reduced(self, scalar):
        """``scalar mod order``, which must fit the table's ``bits``."""
        k = scalar % self.group.order
        if k >> self.bits:
            raise ValueError(f"scalar {scalar} does not fit in {self.bits} bits")
        return k

    def mul(self, scalar):
        """Return ``scalar * base``: ``base * k`` untraced, and under a
        tracer at most ``n_windows`` additions from the stored table."""
        # Cooperative deadline poll per scalar — one table walk is the
        # kernel's smallest unit of work (a traced mul_many inherits it).
        if RUN.deadline is not None:
            RUN.deadline.check()
        k = self._reduced(scalar)
        t = RUN.tracer
        if t is None:
            return self.base * k
        self._build(t)
        if k == 0:
            return self.group.infinity()
        mask = (1 << self.width) - 1
        acc = self.group.infinity()
        for w in range(self.n_windows):
            digit = (k >> (w * self.width)) & mask
            t.op("fixed_base_digit")
            if digit:
                entry = self._table[w][digit - 1]
                addr = self._table_base + (w * mask + digit - 1) * self._point_bytes
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
            self._build(t)
            with t.region("fixed_base_mul_many", parallel=True, items=len(scalars)):
                return [self.mul(k) for k in scalars]
        group, ops = self.group, self.group.ops
        neg = ops.neg
        out = [group.infinity() for _ in scalars]
        live = {i: k for i, k in enumerate(map(self._reduced, scalars)) if k}
        if not live:
            return out
        w = _walk_width(self.bits, len(live))
        accs, row = [None] * len(live), [self.base.to_affine()]
        for column in digit_columns(live.values(), w):
            while len(row) < 1 << (w - 1):
                row += batch_affine_add(ops, row, [row[-1]] * len(row))
            # A negative digit picks the negated entry: free in affine.
            picks = [row[d - 1] if d > 0
                     else None if d == 0 or row[-d - 1] is None
                     else (row[-d - 1][0], neg(row[-d - 1][1]))
                     for d in column]
            accs = batch_affine_add(ops, accs, picks)
            row = batch_affine_add(ops, row[-1:], row[-1:])  # 2^w * this base
        for i, acc in zip(live, accs):
            if acc is not None:
                out[i] = group.point_unchecked(*acc)
        return out
