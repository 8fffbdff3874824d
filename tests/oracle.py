"""Oracles the fast routes are compared with.

*The tracer* (docs/KERNELS.md, "The pinning rule"): every fast kernel has a
textbook twin that the same public call runs under ``RUN.tracer``, so the
reference value of a differential test is that call made under a throwaway
tracer — no second entry point, no environment.

*The ladder* (docs/KERNELS.md, "Membership by endomorphism"): ``[k]P`` by
unreduced binary double-and-add with general additions.  ``Point.__mul__``
reduces its scalar mod ``r`` and ``Group.in_subgroup`` no longer computes
``[r]P``; this is what both are checked against, and what certifies the
rogue points built here as outside the subgroup — never the code under test.

*The row recoder*: :func:`signed_windows` recodes one scalar into all of
its signed window digits at once, the comparator of the streamed column
recoder :func:`repro.msm.recode.digit_columns` the kernels use.

*The per-operation wave*: :func:`affine_wave` is the batch-affine wave
routed through the coordinate adapter one field operation at a time, the
comparator of the adapters' fused ``add_wave``.

*The op counter*: :func:`count_ops` counts a group's coordinate-adapter
multiplications, squarings and inversions over one call, run on the
per-operation wave — the machine-independent cost of a kernel.
"""

from collections import Counter

from repro.perf.trace import Tracer, tracing


def reference(fn, *args):
    """``fn(*args)`` as a traced run computes it."""
    with tracing(Tracer()):
        return fn(*args)


def ladder_mul(pt, k):
    """``[k]pt`` for any ``k >= 0`` and any point of the curve."""
    acc = pt.group.infinity()
    for bit in bin(k)[2:]:
        acc = acc.double()
        if bit == "1":
            acc = acc + pt
    return acc


def ladder(group, pt):
    """``[r]pt == O`` — what ``Group.in_subgroup`` used to compute."""
    return ladder_mul(pt, group.order).is_infinity()


def f2_sqrt(tower, a):
    """A square root of the Fp2 pair *a*, or ``None`` (complex method)."""
    fq = tower.fq
    a0, a1 = a
    norm = fq.add(fq.sqr(a0), fq.sqr(a1))
    if fq.legendre(norm) == -1:
        return None
    for s in (fq.sqrt(norm), fq.neg(fq.sqrt(norm))):
        x0_sq = fq.mul(fq.add(a0, s), fq.inv(2))
        if fq.legendre(x0_sq) == 1:
            x0 = fq.sqrt(x0_sq)
            root = (x0, fq.mul(a1, fq.inv(fq.add(x0, x0))))
            if tower.f2_sqr(root) == a:
                return root
    return None


def g1_points(group, count, start=1):
    """On-curve G1 points from the smallest abscissas ``>= start``
    (``p = 3 mod 4``).  With a cofactor almost all are outside the subgroup
    (BLS12-381: ~2^125), with cofactor 1 none is."""
    p = group.ops.fq.modulus
    found, x = [], start
    while len(found) < count:
        rhs = (pow(x, 3, p) + group.b) % p
        y = pow(rhs, (p + 1) // 4, p)
        if y * y % p == rhs:
            found.append(group.point(x, y))
        x += 1
    return found


def rogue_g1_point(group):
    """The first on-curve G1 point from ``x = 4`` on, outside the subgroup."""
    (pt,) = g1_points(group, 1, start=4)
    assert not ladder(group, pt)
    return pt


def cofactor_points(curve, count):
    """Affine on-curve twist points outside the order-``r`` subgroup: the
    cofactor is ~2^254 (~2^380), so every small ``x`` with a square
    right-hand side gives one."""
    t, g2 = curve.tower, curve.g2
    found = []
    c = 1
    while len(found) < count:
        x = (c, 1)
        y = f2_sqrt(t, t.f2_add(t.f2_mul(t.f2_sqr(x), x), g2.b))
        if y is not None:
            assert not ladder(g2, g2.point(x, y))
            found.append((x, y))
        c += 1
    return found


def point_of_order(seed, ell):
    """A point of prime order *ell* (a factor of the cofactor) under *seed*,
    or ``None`` when *seed* has no *ell*-part: clear everything but the
    *ell*-Sylow subgroup, then multiply by *ell* until the next step is O."""
    group = seed.group
    n = group.cofactor * group.order
    while n % ell == 0:
        n //= ell
    pt = ladder_mul(seed, n)
    if pt.is_infinity():
        return None
    while not (nxt := ladder_mul(pt, ell)).is_infinity():
        pt = nxt
    return pt


def signed_windows(k, c, n_digits):
    """Recode non-negative *k* into *n_digits* signed ``c``-bit window digits.

    Digits lie in ``[-(2^(c-1) - 1), 2^(c-1)]`` and satisfy
    ``k == sum_i digits[i] * 2^(c*i)`` exactly.  A raw digit above
    ``2^(c-1)`` is replaced by ``digit - 2^c`` and a carry into the next
    window, so only ``2^(c-1)`` bucket slots are ever referenced (half of
    the unsigned kernel's ``2^c - 1``).

    *n_digits* must come from :func:`repro.msm.recode.signed_windows_len`
    for the widest scalar in the batch so every scalar recodes to the same
    shape.
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


def batch_inv(ops, xs):
    """Montgomery simultaneous inversion through a coordinate adapter.

    ``3(n-1)`` multiplications plus one inversion; *xs* must be non-zero
    (the caller's pair classification guarantees it).
    """
    n = len(xs)
    prefix = [ops.one] * n
    acc = ops.one
    for i in range(n):
        prefix[i] = acc
        acc = ops.mul(acc, xs[i])
    inv_acc = ops.inv(acc)
    out = [ops.one] * n
    for i in range(n - 1, -1, -1):
        out[i] = ops.mul(inv_acc, prefix[i])
        inv_acc = ops.mul(inv_acc, xs[i])
    return out


def affine_wave(ops, ps, qs):
    """``ops.add_wave(ps, qs)`` one adapter call per field operation:
    ``(sums, inverted)``, the sums of ``ps[i] + qs[i]`` and how many of
    them took a slope."""
    add, sub, mul, sqr = ops.add, ops.sub, ops.mul, ops.sqr
    out = [None] * len(ps)
    slots, nums, denoms = [], [], []  # sums that need a slope num / denom
    for i, (p, q) in enumerate(zip(ps, qs)):
        if p is None or q is None:
            out[i] = q if p is None else p
        elif p[0] != q[0]:
            slots.append(i)
            nums.append(sub(q[1], p[1]))
            denoms.append(sub(q[0], p[0]))
        elif p[1] == q[1] and not ops.is_zero(p[1]):
            xx = sqr(p[0])  # doubling: lambda = 3*x^2 / (2*y)  (a = 0 curves)
            slots.append(i)
            nums.append(add(add(xx, xx), xx))
            denoms.append(add(p[1], p[1]))
        # else P + (-P) or 2 * (x, 0): infinity
    if not denoms:
        return out, 0
    for i, num, inv in zip(slots, nums, batch_inv(ops, denoms)):
        x1, y1 = ps[i]
        lam = mul(num, inv)
        x3 = sub(sub(sqr(lam), x1), qs[i][0])
        out[i] = (x3, sub(mul(lam, sub(x1, x3)), y1))
    return out, len(denoms)


#: The adapter calls :func:`count_ops` counts.
COUNTED_OPS = ("mul", "sqr", "inv")


def count_ops(group, fn, *args, **kwargs):
    """``(fn(*args, **kwargs), counts)``: *counts* is a ``Counter`` of the
    ``mul`` / ``sqr`` / ``inv`` calls made through ``group.ops`` meanwhile.

    The adapter's bound kernels are swapped for counting wrappers, and its
    fused ``add_wave`` for :func:`affine_wave` on them, so a wave counts
    the products it stands for; all is put back afterwards.
    """
    ops, counts = group.ops, Counter()
    saved = {name: getattr(ops, name) for name in COUNTED_OPS}
    fused = type(ops).add_wave

    def counted(name, kernel):
        def call(*operands):
            counts[name] += 1
            return kernel(*operands)
        return call

    for name, kernel in saved.items():
        setattr(ops, name, counted(name, kernel))
    type(ops).add_wave = affine_wave
    try:
        return fn(*args, **kwargs), counts
    finally:
        type(ops).add_wave = fused
        for name, kernel in saved.items():
            setattr(ops, name, kernel)
