"""Fixed-base scalar multiplication: one batch walk, charged a stored table.

The trusted setup multiplies one base point by thousands of distinct
scalars.  :meth:`FixedBaseTable.mul_many` walks them all window by window
in affine coordinates over rows it streams and drops (docs/KERNELS.md,
"Fixed-base batch walk"); nothing is stored.  A traced call is *charged*
the walk the model is calibrated on ("Charging a reference"): a stored
table of ``(2^w - 1)`` affine multiples per w-bit window, built once, and a
Jacobian walk over it a scalar — why setup's loads dwarf its stores ~10x in
Fig. 5 (written once, read for every scalar).
"""

from __future__ import annotations

from repro.context import RUN, charge, untraced
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
        Window width in bits of the stored table a traced call is charged;
        the batch walk sizes its own streamed rows.
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
        self._table_base = None  # the charged table's address, once charged
        if RUN.tracer is not None:
            self._charge_build(RUN.tracer)

    def _charge_build(self, t):
        """Charge *t* the stored table's build, once a table: per window the
        additions of rows ``d = 2 .. 2^w - 1`` (``d = 2`` doubles), their
        ``2^w - 1`` inverting conversions, the addition giving the next
        window's base (a doubling at width 1) and the row's store."""
        if self._table_base is not None:
            return
        cost, per_window = self.group.cost, (1 << self.width) - 1
        point_bytes = self._point_bytes = 2 * self.group.ops.coord_bytes
        self._table_base = t.malloc(self.n_windows * per_window * point_bytes)
        adds = [cost["add_doubling"]] + [cost["add"]] * (per_window - 1)
        window = adds[:-1] + [cost["to_affine"]] * per_window + adds[-1:]
        with t.region("fixed_base_table_build", parallel=True, items=self.n_windows):
            for _k in range(self.n_windows):
                for formula in window:
                    charge(t, formula)
                # Every window's row is stored at the table's base, as calibrated.
                t.mem_block(self._table_base, per_window * point_bytes, write=True)

    def charge_walks(self, t, scalars):
        """Charge *t* the build (once a table) and one stored-table walk a
        scalar: per window a ``fixed_base_digit``, per non-zero digit its
        entry's load and, after the first, one mixed addition."""
        self._charge_build(t)
        add, width, point_bytes = self.group.cost["add_affine"], self.width, self._point_bytes
        mask = (1 << width) - 1
        for scalar in scalars:
            if RUN.deadline is not None:
                RUN.deadline.check()
            k, started = self._reduced(scalar), 0
            for w in range(self.n_windows if k else 0):
                t.op("fixed_base_digit")
                digit = (k >> (w * width)) & mask
                if digit:
                    t.mem_load(self._table_base + (w * mask + digit - 1) * point_bytes,
                               point_bytes)
                    charge(t, add, started)  # the first entry lands on O for free
                    started = 1

    def _reduced(self, scalar):
        """``scalar mod order``, which must fit the table's ``bits``."""
        k = scalar % self.group.order
        if k >> self.bits:
            raise ValueError(f"scalar {scalar} does not fit in {self.bits} bits")
        return k

    def mul(self, scalar):
        """Return ``scalar * base``: ``base * k``, charged one walk traced."""
        if RUN.deadline is not None:
            RUN.deadline.check()
        k = self._reduced(scalar)
        point = untraced(self.base.__mul__, k)
        t = RUN.tracer
        if t is not None:
            self.charge_walks(t, [k])
        return point

    def mul_many(self, scalars):
        """Multiply the base by every scalar (:meth:`_walk`), charged the
        build and one walk a scalar in one parallel region traced."""
        points = untraced(self._walk, scalars)
        t = RUN.tracer
        if t is not None:
            self._charge_build(t)
            with t.region("fixed_base_mul_many", parallel=True, items=len(scalars)):
                self.charge_walks(t, scalars)
        return points

    def _walk(self, scalars):
        """The window-major batch walk: per window, the row ``d * 2^(w*j) *
        base`` grows by doubling its length a wave at a time, every live
        accumulator adds the entry its signed digit selects in one wave
        behind one shared inversion, and the row is dropped; the products
        are ``Z == 1`` by construction."""
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
