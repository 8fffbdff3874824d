"""Fixed-base scalar multiplication with a windowed table.

The trusted setup multiplies one base point (the generator, or ``Z(tau)/
delta`` style derived points) by thousands of distinct scalars.  A one-time
table of ``(2^w - 1)`` multiples per w-bit window reduces each subsequent
multiplication to at most ``ceil(bits/w)`` mixed additions.

The table build and the per-scalar walks are both instrumented: the large
sequential table (the reason the setup stage's loads dwarf its stores by
~10x in Fig. 5 — the table is written once and read for every scalar) is
given a real footprint in the traced address space.
"""

from __future__ import annotations

from repro.msm.batch_affine import batch_inv
from repro.perf import trace
from repro.resilience import retry as resilience

__all__ = ["FixedBaseTable"]


class FixedBaseTable:
    """Precomputed window table for one base point.

    Parameters
    ----------
    base:
        A group :class:`~repro.curves.curve.Point`.
    width:
        Window width in bits (4 is a good default for the setup sizes the
        harness sweeps; 8 halves the adds per scalar at 16x the table).
    bits:
        Scalar bit width to support (defaults to the group order's width).
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
        self.width = width
        self.bits = bits or group.order.bit_length()
        self.n_windows = (self.bits + width - 1) // width
        per_window = (1 << width) - 1

        t = trace.CURRENT
        point_bytes = self._point_bytes = 2 * group.ops.coord_bytes
        self._table_base = 0
        if t is not None:
            self._table_base = t.malloc(self.n_windows * per_window * point_bytes)

        # table[k][d-1] holds (d * 2^(k*width)) * base, normalized to affine
        # so the per-scalar walk uses cheap mixed additions.
        table = []
        window_base = base
        region = t.region("fixed_base_table_build", parallel=True, items=self.n_windows) \
            if t is not None else None
        if region is not None:
            region.__enter__()
        try:
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
        finally:
            if region is not None:
                region.__exit__(None, None, None)
        self._table = table

    def mul(self, scalar):
        """Return ``scalar * base`` using at most ``n_windows`` additions."""
        # Cooperative deadline poll per scalar — one table walk is the
        # kernel's smallest unit of work (mul_many inherits the poll).
        if resilience.DEADLINE is not None:
            resilience.DEADLINE.check()
        k = scalar % self.group.order
        if k == 0:
            return self.group.infinity()
        t = trace.CURRENT
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

    def _normalized(self, points):
        """Replace every finite point of *points* by its ``Z == 1`` form."""
        group = self.group
        ops = group.ops
        live = [i for i, p in enumerate(points) if not p.is_infinity()]
        if live:
            zinvs = batch_inv(ops, [points[i].Z for i in live])
            for i, zinv in zip(live, zinvs):
                zinv2 = ops.sqr(zinv)
                points[i] = group.point_unchecked(
                    ops.mul(points[i].X, zinv2),
                    ops.mul(points[i].Y, ops.mul(zinv2, zinv)))
        return points

    def mul_many(self, scalars):
        """Multiply the base by every scalar (one parallel traced region).

        Untraced, the products come back normalized (``Z == 1``) through
        one shared batch inversion, so every later ``to_affine`` on them —
        the prover's per-proof query walk, the serializers — is free;
        traced runs keep the Jacobian walk (the pinning rule,
        docs/KERNELS.md).
        """
        t = trace.CURRENT
        if t is None:
            return self._normalized([self.mul(k) for k in scalars])
        with t.region("fixed_base_mul_many", parallel=True, items=len(scalars)):
            return [self.mul(k) for k in scalars]
