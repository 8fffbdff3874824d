"""Oracles the fast routes are compared with.

*The tracer* (docs/KERNELS.md, "The pinning rule"): the pinned site
(``active_pool``) has a serial twin that the same public call runs under
``RUN.tracer``, so the reference value of a differential test is that call
made under a throwaway tracer — no second entry point, no environment.
:func:`trace` is that call with the trace it leaves.

*The bucket method*: :func:`msm_pippenger` is the textbook Pippenger MSM
with Jacobian buckets — the value every MSM kernel is compared with, and the
route a traced ``msm_auto`` is charged ("Charging a reference"), executed
under a tracer by :func:`executed_msm`.

*The ladder* (docs/KERNELS.md, "Membership by endomorphism"): ``[k]P`` by
unreduced binary double-and-add with general additions.  ``Point.__mul__``
reduces its scalar mod ``r`` and ``Group.in_subgroup`` no longer computes
``[r]P``; this is what both are checked against, and what certifies the
rogue points built here as outside the subgroup — never the code under test.
With the scalar reduced it is also the route a traced ``P * k`` is charged.

*The stored-table walk*: :func:`build_table` and :func:`table_walk` are the
fixed-base table of ``(2^w - 1)`` affine multiples a window and its
per-scalar Jacobian walk, :func:`inverting_affine` the conversion that
inverts whatever ``Z`` is — the routes a traced ``FixedBaseTable`` call and
a traced conversion of a ``Z == 1`` point are charged (docs/KERNELS.md,
"Charging a reference"), executed under a tracer by
:func:`executed_curve_ops`; :func:`stored_walk` is the walk's value, the
comparator of the batch walk.

*The per-operation passes*: :func:`transform_passes`, :func:`intt_scale`
and :func:`coset_scale` are the NTT and its scalings one ``field.mul`` /
``field.add`` / ``field.sub`` call per step, and
:func:`column_evaluations_at` the QAP column walk one ``field.mul`` and
``field.add`` a matrix entry — the routes a traced transform and a traced
column walk are charged (docs/KERNELS.md, "Charging a reference"),
executed under a tracer by :func:`executed_ntt` and
:func:`executed_columns`; :func:`full_trace` is :func:`trace` with each
region's count order and the address-space cursor.

*The row recoder*: :func:`signed_windows` recodes one scalar into all of
its signed window digits at once, the comparator of the streamed column
recoder :func:`repro.msm.recode.digit_columns` the kernels use.

*The per-operation wave*: :func:`affine_wave` is the batch-affine wave
routed through the coordinate adapter one field operation at a time, the
comparator of the adapters' fused ``add_wave``.

*The per-operation tower*: :func:`fp12_mul`, :func:`fp12_square`,
:func:`fp12_mul_by_line` and :func:`fp12_cyclotomic_square` are the
``Fp12`` kernels one ``Fp6`` / ``f2_*`` call per step, and :func:`lines`
walks one twist point's Miller lines the same way — the comparators, in
values and in traced primitive counts, of the fused ``Fp12`` kernels and of
``PairingEngine._walk``.

*The textbook pairing*: :func:`miller_loop` (the affine loop on the
untwisted image of G2 in ``E(Fp12)``), :func:`final_exponentiation` (the
hard part by square-and-multiply), :func:`multi_pairing` and
:func:`groth16_verify` (four loops, one final exponentiation) — the route a
traced pairing call is charged (docs/KERNELS.md, "Charging a reference"),
the comparator of the engine's values and, executed under a tracer
(:func:`executed_pairing` for the protocol calls), of its traces.

*The tick LRU*: :class:`TickLRU` is the set-associative LLC as a tick
stamp per line and a ``min`` scan for the victim, replaying a stored
event list — the comparator of :class:`repro.perf.cache.LLCModel`'s
insertion-ordered sets fed as events happen; :func:`tick_llc` is its
stats and per-window miss bytes.

*The op counter*: :func:`count_ops` counts a group's coordinate-adapter
multiplications, squarings and inversions over one call, run on the
per-operation wave — the machine-independent cost of a kernel.
"""

from collections import Counter
from contextlib import contextmanager
from importlib import import_module

from repro.context import RUN, region
from repro.curves.curve import Point
from repro.curves.pairing import PairingEngine, PreparedG2, engine_for
from repro.fields.extensions import Fp6, Fp12
from repro.msm import dispatch
from repro.msm.fixed_base import FixedBaseTable
from repro.msm.pippenger import _OPERAND_HEAP_BYTES, optimal_window
from repro.msm.terms import live_terms
from repro.perf.bandwidth import DEFAULT_WINDOW_TICKS
from repro.perf.cache import CacheStats
from repro.perf.trace import Tracer, tracing

# The modules, not the functions their packages export under the same name.
ntt = import_module("repro.poly.ntt")
groth16_setup = import_module("repro.groth16.setup")


def reference(fn, *args):
    """``fn(*args)`` as a traced run computes it: no pool.  A charged site
    (a pairing, ``P * k``, ``to_affine``, ``FixedBaseTable``, ``msm_auto``,
    the NTT, the QAP column walk) computes the same value traced or not;
    its comparators are :func:`ladder_mul`, :func:`stored_walk`,
    :func:`msm_pippenger`, :func:`miller_loop`,
    :func:`final_exponentiation`, :func:`transform_passes` and
    :func:`column_evaluations_at` below."""
    with tracing(Tracer()):
        return fn(*args)


def trace(fn, *args):
    """``(value, root, clock, mem_events)`` of ``fn(*args)`` under a fresh
    tracer: what a traced run hands the analyses (``root`` compares as the
    whole region tree with every region's counts)."""
    tracer = Tracer()
    with tracing(tracer):
        value = fn(*args)
    return value, tracer.root, tracer.clock, tracer.mem_events


def full_trace(fn, *args):
    """``(value, regions, clock, mem_events, cursor)`` of ``fn(*args)`` under
    a fresh tracer: :func:`trace` with the region tree flattened depth-first
    to ``(depth, name, parallel, items, load_scale, store_scale, counts)``,
    each region's counts in report order, and the address-space cursor."""
    tracer = Tracer()
    with tracing(tracer):
        value = fn(*args)
    regions = [(r.depth, r.name, r.parallel, r.items, r.load_scale, r.store_scale,
                tuple(r.counts.items())) for r in tracer.iter_regions()]
    return value, regions, tracer.clock, tracer.mem_events, tracer.aspace._next


def ladder_mul(pt, k):
    """``[k]pt`` for any ``k >= 0`` and any point of the curve."""
    acc = pt.group.infinity()
    for bit in bin(k)[2:]:
        acc = acc.double()
        if bit == "1":
            acc = acc + pt
    return acc


def inverting_affine(pt):
    """``pt.to_affine()`` by the inversion, whatever ``Z`` is."""
    if pt.is_infinity():
        return None
    ops = pt.group.ops
    zinv = ops.inv(pt.Z)
    zinv2 = ops.sqr(zinv)
    return (ops.mul(pt.X, zinv2), ops.mul(pt.Y, ops.mul(zinv2, zinv)))


def build_table(table, t):
    """Build the stored table of the :class:`FixedBaseTable` *table* once,
    reporting to the tracer *t*: ``table.rows[k][d-1]`` holds ``(d *
    2^(k*width)) * base`` in affine coordinates, so a walk's additions are
    mixed."""
    if table._table_base is not None:
        return
    group = table.group
    per_window = (1 << table.width) - 1
    point_bytes = table._point_bytes = 2 * group.ops.coord_bytes
    table._table_base = t.malloc(table.n_windows * per_window * point_bytes)
    rows, window_base = [], table.base
    with t.region("fixed_base_table_build", parallel=True, items=table.n_windows):
        for _k in range(table.n_windows):
            row, acc = [], group.infinity()
            for _d in range(per_window):
                acc = acc + window_base
                row.append(acc)
            rows.append([inverting_affine(p) for p in row])
            window_base = acc + window_base  # == 2^width * previous base
            t.mem_block(table._table_base, per_window * point_bytes, write=True)
    table.rows = rows


def table_walk(table, t, scalar):
    """``scalar * table.base`` by one Jacobian walk of the stored table
    (built first), reporting to the tracer *t*."""
    k = table._reduced(scalar)
    build_table(table, t)
    acc = table.group.infinity()
    if k == 0:
        return acc
    mask = (1 << table.width) - 1
    for w in range(table.n_windows):
        digit = (k >> (w * table.width)) & mask
        t.op("fixed_base_digit")
        if digit:
            t.mem_load(table._table_base + (w * mask + digit - 1) * table._point_bytes,
                       table._point_bytes)
            entry = table.rows[w][digit - 1]
            if entry is not None:
                acc = acc.add_affine(*entry)
    return acc


def stored_walk(table, scalars):
    """``[k * table.base for k in scalars]`` by the stored-table walk of an
    untraced twin of *table*, a throwaway tracer taking its reports."""
    twin, t = FixedBaseTable(table.base, table.width, table.bits), Tracer()
    return [table_walk(twin, t, k) for k in scalars]


def msm_pippenger(group, points, scalars, window=None):
    """``sum_i scalars[i] * points[i]`` by the textbook bucket method with
    Jacobian buckets, reporting to ``RUN.tracer`` (to a throwaway tracer
    when none is installed) — the route a traced ``msm_auto`` is charged
    (:func:`repro.msm.pippenger.charge_pippenger`) and the value every MSM
    kernel is compared with."""
    pairs = live_terms(group, points, scalars, window)
    if not pairs:
        return group.infinity()
    c = window or optimal_window(len(pairs))
    n_windows = (group.order.bit_length() + c - 1) // c
    mask = (1 << c) - 1
    t = RUN.tracer if RUN.tracer is not None else Tracer()
    point_bytes = 2 * group.ops.coord_bytes
    bucket_bytes = 3 * group.ops.coord_bytes
    points_base = t.aspace.alloc(len(pairs) * point_bytes)
    buckets_base = t.aspace.alloc(mask * bucket_bytes)
    heap_base = t.aspace.alloc(_OPERAND_HEAP_BYTES)
    window_sums = []
    for w in range(n_windows):
        with t.region("msm_window", parallel=True, items=len(pairs)):
            t.mem_block(points_base, len(pairs) * point_bytes, write=False)
            buckets = [None] * mask
            for i, (pt, k) in enumerate(pairs):
                digit = (k >> (w * c)) & mask
                t.op("msm_digit")
                if digit:
                    slot = buckets[digit - 1]
                    buckets[digit - 1] = (
                        group.point_unchecked(*pt) if slot is None else slot.add_affine(*pt))
                    addr = buckets_base + (digit - 1) * bucket_bytes
                    t.mem_load(addr, bucket_bytes)
                    t.mem_store(addr, bucket_bytes)
                    t.mem_load(heap_base + ((i * n_windows + w) * 2654435761)
                               % _OPERAND_HEAP_BYTES, 32)
            # Running-sum fold: ``sum_d d * bucket[d]``.
            running = total = group.infinity()
            for slot in reversed(buckets):
                if slot is not None:
                    running = running + slot
                total = total + running
            window_sums.append(total)
    # Horner combine from the most significant window down (doubling the
    # identity before the first add is a no-op).
    acc = group.infinity()
    for ws in reversed(window_sums):
        for _ in range(c):
            acc = acc.double()
        acc = acc + ws
    return acc


@contextmanager
def _swapped(*swaps):
    """Set each ``(owner, name, value)`` of *swaps* for the duration."""
    saved = [(owner, name, vars(owner)[name]) for owner, name, _ in swaps]
    for owner, name, value in swaps:
        setattr(owner, name, value)
    try:
        yield
    finally:
        for owner, name, value in saved:
            setattr(owner, name, value)


def executed_curve_ops():
    """Within, a traced call executes the textbook route where a curve or
    fixed-base site would charge it — :func:`ladder_mul` for
    ``Point.charge_mul``, :func:`inverting_affine` for ``charge_to_affine``,
    :func:`build_table` and :func:`table_walk` for ``FixedBaseTable``'s
    charges: the trace a charged call must equal."""
    return _swapped(
        (Point, "charge_mul", lambda pt, _t, k: ladder_mul(pt, k)),
        (Point, "charge_to_affine", lambda pt, _t: inverting_affine(pt)),
        (FixedBaseTable, "_charge_build", build_table),
        (FixedBaseTable, "charge_walks",
         lambda table, t, scalars: [table_walk(table, t, k) for k in scalars]))


def executed_msm():
    """Within, a traced ``msm_auto`` executes :func:`msm_pippenger` on the
    live terms where it would charge ``charge_pippenger``: the trace a
    charged call must equal."""
    return _swapped((dispatch, "charge_pippenger",
                     lambda _t, group, terms: msm_pippenger(
                         group, [pt for pt, _k in terms], [k for _pt, k in terms])))


def transform_passes(field, values, root, label):
    """The iterative Cooley–Tukey transform of *values* (in place) by
    per-operation passes, reporting to ``RUN.tracer`` (to a throwaway
    tracer when none is installed): every butterfly one ``field.mul``,
    ``field.add`` and ``field.sub`` — the route a traced NTT is charged."""
    n = len(values)
    if n & (n - 1):
        raise ValueError(f"NTT length must be a power of two, got {n}")
    if n <= 1:
        return values
    t = RUN.tracer if RUN.tracer is not None else Tracer()
    r = field.modulus
    base = t.aspace.alloc(n * ntt.COEFF_BYTES)
    t.op("ntt_setup")
    ntt.bit_reverse_permute(values)
    length = 2
    while length <= n:
        w_len = pow(root, n // length, r)
        half = length >> 1
        with t.region(f"{label}_pass", parallel=True, items=n // length):
            for start in range(0, n, length):
                w = 1
                for k in range(start, start + half):
                    u = values[k]
                    v = field.mul(values[k + half], w)
                    values[k] = field.add(u, v)
                    values[k + half] = field.sub(u, v)
                    w = w * w_len % r
                    t.op("ntt_butterfly")
            # One streaming read+write sweep of the whole array per pass.
            t.mem_block(base, n * ntt.COEFF_BYTES, write=False)
            t.mem_block(base, n * ntt.COEFF_BYTES, write=True)
        length <<= 1
    return values


def intt_scale(field, values, n_inv):
    """``[v / n]`` one ``field.mul`` each, in an ``intt_scale`` region."""
    with region("intt_scale", parallel=True, items=len(values)):
        return [field.mul(v, n_inv) for v in values]


def coset_scale(field, values, g):
    """``[values[i] * g^i]`` one ``field.mul`` each, in a ``coset_scale``
    region."""
    out, acc = [0] * len(values), 1
    with region("coset_scale", parallel=True, items=len(values)):
        for i, v in enumerate(values):
            out[i] = field.mul(v, acc)
            acc = acc * g % field.modulus
    return out


def executed_ntt():
    """Within, the transforms and their scalings run the per-operation
    passes above where they would run the raw-integer loops and charge
    them: the trace a charged call must equal."""
    return _swapped((ntt, "_transform", transform_passes),
                    (ntt, "_intt_scale", intt_scale),
                    (ntt, "_coset_scale", coset_scale))


def column_evaluations_at(r1cs, domain, tau):
    """The QAP columns at *tau* by the eager per-term walk: one
    ``field.mul`` and one ``field.add`` a matrix entry, in a
    ``qap_columns_at_tau`` region — the route a traced
    :func:`repro.qap.column_evaluations_at` is charged."""
    f = r1cs.fr
    lag = domain.lagrange_at(tau)
    cols = [[0] * r1cs.n_wires for _ in range(3)]
    with region("qap_columns_at_tau", parallel=True, items=r1cs.n_constraints):
        for j, cons in enumerate(r1cs.constraints):
            for col, row in zip(cols, (cons.a, cons.b, cons.c)):
                for wire, coeff in row.items():
                    col[wire] = f.add(col[wire], f.mul(coeff, lag[j]))
    return tuple(cols)


def executed_columns():
    """Within, a traced ``groth16.setup`` walks the QAP columns by
    :func:`column_evaluations_at` above where it would charge the walk."""
    return _swapped((groth16_setup, "column_evaluations_at", column_evaluations_at))


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


# -- the per-operation tower -------------------------------------------------------


def fp6_scale_fp(a, k):
    """Multiply every coefficient of the Fp6 *a* by the base-field integer *k*."""
    t = a.tower
    a = a.a
    return Fp6(t, t.f2_scale(a[0], k), t.f2_scale(a[1], k), t.f2_scale(a[2], k))


def fp6_mul_by_01(a, l0, l1):
    """Multiply the Fp6 *a* by the sparse element ``l0 + l1*v`` (raw Fp2
    pairs): 6 ``Fp2`` products where the dense product spends 9."""
    t = a.tower
    mul, add = t.f2_mul, t.f2_add
    a0, a1, a2 = a.a
    return Fp6(
        t,
        add(mul(a0, l0), t.f2_mul_xi(mul(a2, l1))),
        add(mul(a0, l1), mul(a1, l0)),
        add(mul(a1, l1), mul(a2, l0)),
    )


def fp12_mul(a, b):
    # Karatsuba over the quadratic step: 3 Fp6 multiplications.
    a0, a1 = a._lo(), a._hi()
    b0, b1 = b._lo(), b._hi()
    t0 = a0 * b0
    t1 = a1 * b1
    lo = t0 + t1.mul_by_v()
    hi = (a0 + a1) * (b0 + b1) - t0 - t1
    return Fp12(a.tower, lo.a, hi.a)


def fp12_square(a):
    # Complex squaring: 2 Fp6 multiplications.
    a0, a1 = a._lo(), a._hi()
    t = a0 * a1
    lo = (a0 + a1) * (a0 + a1.mul_by_v()) - t - t.mul_by_v()
    hi = t + t
    return Fp12(a.tower, lo.a, hi.a)


def fp12_mul_by_line(f, s, l0, l1, k):
    """``f * (s + (l0 + l1*v) * v**k * w)``: 12 ``Fp2`` products."""
    a0, a1 = f._lo(), f._hi()
    x = fp6_mul_by_01(a0, l0, l1)
    y = fp6_mul_by_01(a1, l0, l1).mul_by_v()          # w * w = v
    if k:
        x, y = x.mul_by_v(), y.mul_by_v()
    lo = fp6_scale_fp(a0, s) + y
    hi = fp6_scale_fp(a1, s) + x
    return Fp12(f.tower, lo.a, hi.a)


def fp12_cyclotomic_square(f):
    """Granger–Scott squaring of a cyclotomic *f*: 9 ``Fp2`` squarings."""
    t = f.tower
    add, sub, sqr, mul_xi = t.f2_add, t.f2_sub, t.f2_sqr, t.f2_mul_xi
    g0, g2, g4 = f.c0
    g1, g3, g5 = f.c1

    def fp4_square(a, b):
        # (a + b*y)^2 with y^2 = xi
        aa, bb = sqr(a), sqr(b)
        return add(aa, mul_xi(bb)), sub(sub(sqr(add(a, b)), aa), bb)

    def minus(sq, g):     # 3*sq - 2*g
        d = sub(sq, g)
        return add(add(d, d), sq)

    def plus(sq, g):      # 3*sq + 2*g
        s = add(sq, g)
        return add(add(s, s), sq)

    a_lo, a_hi = fp4_square(g0, g3)
    b_lo, b_hi = fp4_square(g1, g4)
    c_lo, c_hi = fp4_square(g2, g5)
    return Fp12(
        t,
        (minus(a_lo, g0), minus(b_lo, g2), minus(c_lo, g4)),
        (plus(mul_xi(c_hi), g1), plus(a_hi, g3), plus(b_hi, g5)),
    )


def lines(eng, Q_aff):
    """Yield ``(square, c, d)`` for each line of the Miller loop of
    *Q_aff*, one ``f2_*`` call a step and one ``f2_inv`` a line; raises
    ``ZeroDivisionError`` where a denominator is zero."""
    t = eng.tower
    add, sub, mul, sqr, inv = t.f2_add, t.f2_sub, t.f2_mul, t.f2_sqr, t.f2_inv
    bn = eng.curve.family == "bn"
    # The M-type line's w^-1 and w^-3 are w^5 / xi and w^3 / xi.
    xi_inv = t.xi_inv

    def line(lam, x1, y1, x2):
        """Coefficients of the line of slope *lam* through ``R = (x1,
        y1)``, and ``R`` plus the line's point of abscissa *x2*."""
        nu = sub(y1, mul(lam, x1))
        x3 = sub(sub(sqr(lam), x1), x2)
        cd = (lam, nu) if bn else (mul(lam, xi_inv), mul(nu, xi_inv))
        return cd, x3, sub(mul(lam, sub(x1, x3)), y1)

    def chord(x1, y1, x2, y2):
        return mul(sub(y2, y1), inv(sub(x2, x1)))

    xq, yq = x1, y1 = Q_aff
    for bit in bin(eng.curve.ate_loop)[3:]:
        x1_sq = sqr(x1)
        tangent = mul(add(add(x1_sq, x1_sq), x1_sq), inv(add(y1, y1)))
        cd, x1, y1 = line(tangent, x1, y1, x1)
        yield (True, *cd)
        if bit == "1":
            cd, x1, y1 = line(chord(x1, y1, xq, yq), x1, y1, xq)
            yield (False, *cd)
    if bn:
        # Frobenius seen from the twist: conjugate, then scale x by
        # xi^((p-1)/3) and y by xi^((p-1)/2).
        g1, _g2, gw = t.frobenius_constants
        gy = mul(g1, gw)
        conj = t.f2_conj
        x2, y2 = mul(conj(xq), g1), mul(conj(yq), gy)
        x3, y3 = mul(conj(x2), g1), t.f2_neg(mul(conj(y2), gy))
        cd, x1, y1 = line(chord(x1, y1, x2, y2), x1, y1, x2)
        yield (False, *cd)
        yield (False, *line(chord(x1, y1, x3, y3), x1, y1, x3)[0])


# -- the textbook pairing -----------------------------------------------------------


def fp12_add(a, b):
    return Fp12(a.tower, (a._lo() + b._lo()).a, (a._hi() + b._hi()).a)


def fp12_sub(a, b):
    return Fp12(a.tower, (a._lo() - b._lo()).a, (a._hi() - b._hi()).a)


def fp12_neg(a):
    return Fp12(a.tower, (-a._lo()).a, (-a._hi()).a)


def fp12_pow(f, e):
    """``f ** e`` by square-and-multiply; a negative *e* inverts first."""
    if e < 0:
        return fp12_pow(f.inverse(), -e)
    acc = f.tower.fp12_one()
    base = f
    while e > 0:
        if e & 1:
            acc = acc * base
        base = base.square()
        e >>= 1
    return acc


def fp12_scalar(tower, c):
    """Embed a base-field integer as an Fp12 element."""
    z = (0, 0)
    return Fp12(tower, ((c, 0), z, z), (z, z, z))


def embed_g1(eng, P):
    """Map an affine G1 point (ints) to ``E(Fp12)`` coordinates."""
    x, y = P
    return (fp12_scalar(eng.tower, x), fp12_scalar(eng.tower, y))


def untwist_g2(eng, Q):
    """Map an affine twist point (Fp2 pairs) to ``E(Fp12)``.

    BN254 uses a D-type twist (``psi(x,y) = (x w^2, y w^3)``); BLS12-381
    an M-type twist (``psi(x,y) = (x w^4 / xi, y w^3 / xi)``).  In the
    tower basis ``w^2 = v`` these land on sparse Fp6 slots.
    """
    t = eng.tower
    xq, yq = Q
    z = (0, 0)
    if eng.curve.family == "bn":
        x12 = Fp12(t, (z, xq, z), (z, z, z))          # x * v
        y12 = Fp12(t, (z, z, z), (z, yq, z))          # y * v * w
    else:
        xi_inv = t.f2_inv(t.xi)
        xs = t.f2_mul(xq, xi_inv)
        ys = t.f2_mul(yq, xi_inv)
        x12 = Fp12(t, (z, z, xs), (z, z, z))          # x/xi * v^2
        y12 = Fp12(t, (z, z, z), (z, ys, z))          # y/xi * v * w
    return (x12, y12)


def double_step(R, P):
    """Return ``(2R, line_{R,R}(P))`` sharing the tangent slope."""
    x1, y1 = R
    xt, yt = P
    x1_sq = x1.square()
    num = fp12_add(fp12_add(x1_sq, x1_sq), x1_sq)
    den = fp12_add(y1, y1)
    m = num * den.inverse()
    x3 = fp12_sub(m.square(), fp12_add(x1, x1))
    y3 = fp12_sub(m * fp12_sub(x1, x3), y1)
    line = fp12_sub(m * fp12_sub(xt, x1), fp12_sub(yt, y1))
    return (x3, y3), line


def add_step(R, Q, P):
    """Return ``(R + Q, line_{R,Q}(P))`` sharing the chord slope."""
    x1, y1 = R
    x2, y2 = Q
    xt, yt = P
    if x1 == x2:
        if y1 == y2:
            return double_step(R, P)
        # Vertical line; R + Q is the identity.
        return None, fp12_sub(xt, x1)
    m = fp12_sub(y2, y1) * fp12_sub(x2, x1).inverse()
    x3 = fp12_sub(fp12_sub(m.square(), x1), x2)
    y3 = fp12_sub(m * fp12_sub(x1, x3), y1)
    line = fp12_sub(m * fp12_sub(xt, x1), fp12_sub(yt, y1))
    return (x3, y3), line


def frobenius_point(R):
    """Coordinate-wise Frobenius ``(x^p, y^p)`` — an endomorphism of E."""
    x, y = R
    return (x.frobenius(), y.frobenius())


def miller_loop(eng, P_aff, Q_aff):
    """The textbook Miller loop on ``E(Fp12)``: ``P_aff`` affine G1, ``Q_aff``
    an affine twist point or a :class:`~repro.curves.pairing.PreparedG2`, 1
    if either is the identity.  The route a traced ``eng.miller_loop`` is
    charged, reporting to the tracer as it goes."""
    if P_aff is None or Q_aff is None:
        return eng.tower.fp12_one()
    tracer = RUN.tracer
    if tracer is not None:
        tracer.op("pairing_miller_loop")
    if isinstance(Q_aff, PreparedG2):
        Q_aff = Q_aff.point
    P = embed_g1(eng, P_aff)
    Q = untwist_g2(eng, Q_aff)
    loop = eng.curve.ate_loop
    f = eng.tower.fp12_one()
    R = Q
    for i in range(loop.bit_length() - 2, -1, -1):
        R, line = double_step(R, P)
        f = f * f * line
        if (loop >> i) & 1:
            R, line = add_step(R, Q, P)
            f = f * line
    if eng.curve.family == "bn":
        # Optimal ate for BN needs two Frobenius-twisted additions.
        Q1 = frobenius_point(Q)
        Q2 = frobenius_point(Q1)
        nQ2 = (Q2[0], fp12_neg(Q2[1]))
        R, line = add_step(R, Q1, P)
        f = f * line
        _, line = add_step(R, nQ2, P)
        f = f * line
    elif eng.curve.x_negative:
        # BLS with negative x: conjugate f (valid up to final exp).
        f = f.conjugate()
    return f


def miller_product(eng, pairs):
    """``1 * miller_loop(P_1, Q_1) * ...`` over affine *pairs*, textbook."""
    f = eng.tower.fp12_one()
    for P, Q in pairs:
        f = f * miller_loop(eng, P, Q)
    return f


def final_exponentiation(eng, f):
    """``f ** ((p^12 - 1) / r)``: the easy part, then the hard exponent by
    square-and-multiply — the route a traced ``eng.final_exponentiation``
    is charged."""
    tracer = RUN.tracer
    if tracer is not None:
        tracer.op("pairing_final_exp")
    f1 = f.conjugate() * f.inverse()              # f^(p^6 - 1)
    f2 = f1.frobenius().frobenius() * f1          # ... ^(p^2 + 1)
    return fp12_pow(f2, eng._hard_exponent)       # ... ^((p^4 - p^2 + 1)/r)


def multi_pairing(eng, pairs, f=None):
    """``eng.multi_pairing(pairs, f)`` by the textbook route."""
    prod = miller_product(eng, [(P.to_affine(), Q.to_affine()) for P, Q in pairs])
    if f is not None:
        prod = prod * f
    return final_exponentiation(eng, prod)


def groth16_verify(vk, proof, publics):
    """Groth16's verdict by the textbook route: ``e(-A, B) e(alpha, beta)
    e(vk_x, gamma) e(C, delta) == 1``, four loops of :func:`miller_loop`."""
    return multi_pairing(engine_for(vk.curve), [
        (-proof.a, proof.b), (vk.alpha1, vk.beta2),
        (vk.fold_publics(publics), vk.gamma2), (proof.c, vk.delta2)]).is_one()


def executed_pairing():
    """Within, a traced call executes the textbook route where the engine
    would charge it: :func:`miller_product` on the pairs
    ``charge_miller_loops`` is handed, then :func:`final_exponentiation` of
    that product (of one, when no product came first) — the trace a charged
    call must equal."""
    products = []

    def loops(eng, _t, pairs):
        products.append(miller_product(eng, pairs))

    def final(eng, _t):
        final_exponentiation(eng, products.pop() if products else eng.tower.fp12_one())

    return _swapped((PairingEngine, "charge_miller_loops", loops),
                    (PairingEngine, "charge_final_exponentiation", final))


class TickLRU:
    """An LRU set-associative cache: per set a ``line -> dirty`` dict and a
    ``line -> last-use tick`` dict, the victim the minimum tick."""

    def __init__(self, size_bytes, assoc, line_bytes=64):
        if size_bytes < assoc * line_bytes:
            size_bytes = assoc * line_bytes
        self.line_bytes = line_bytes
        self.assoc = assoc
        n_sets = max(1, size_bytes // (assoc * line_bytes))
        while n_sets & (n_sets - 1):
            n_sets &= n_sets - 1
        self.n_sets = n_sets
        self._sets = [dict() for _ in range(n_sets)]  # line -> dirty flag
        self._tick = 0
        self._lru = [dict() for _ in range(n_sets)]   # line -> last-use tick
        self.stats = CacheStats()

    def access(self, addr, size, is_write):
        """A single (random) access to ``[addr, addr+size)``; returns the
        number of line misses."""
        lb = self.line_bytes
        first = addr // lb
        last = (addr + max(size, 1) - 1) // lb
        misses = 0
        for line in range(first, last + 1):
            misses += self._touch(line, is_write)
        if misses and not is_write:
            self.stats.random_load_misses += misses
        return misses

    def _touch(self, line, is_write):
        st = self.stats
        idx = line & (self.n_sets - 1)
        ways = self._sets[idx]
        lru = self._lru[idx]
        self._tick += 1
        if is_write:
            st.store_accesses += 1
        else:
            st.load_accesses += 1
        if line in ways:
            lru[line] = self._tick
            if is_write:
                ways[line] = True
            return 0
        if is_write:
            st.store_misses += 1
        else:
            st.load_misses += 1
        if len(ways) >= self.assoc:
            victim = min(lru, key=lru.get)
            if ways.pop(victim):
                st.writebacks += 1
            del lru[victim]
        ways[line] = is_write
        lru[line] = self._tick
        return 1

    def replay(self, events, on_miss=None):
        """Replay a stored memory-event list; ``on_miss(clock, bytes)`` is
        called per event with the DRAM bytes it generated."""
        lb = self.line_bytes
        for kind, a, b, clock in events:
            if kind == "L":
                misses = self.access(a, b, False)
            elif kind == "S":
                misses = self.access(a, b, True)
            elif kind == "LB":
                misses = self._burst(a, b, False)
            elif kind == "SB":
                misses = self._burst(a, b, True)
            else:
                raise ValueError(f"unknown memory event kind {kind!r}")
            if on_miss is not None and misses:
                on_miss(clock, misses * lb)
        return self.stats

    def _burst(self, base, nbytes, is_write):
        """Sequential sweep: one access per cache line."""
        lb = self.line_bytes
        misses = 0
        for line in range(base // lb, (base + nbytes - 1) // lb + 1):
            misses += self._touch(line, is_write)
        return misses


def tick_llc(events, size_bytes, assoc, line_bytes=64):
    """``(CacheStats, {window: bytes})`` of *events* replayed through a
    :class:`TickLRU`, the miss timeline binned by ``DEFAULT_WINDOW_TICKS``."""
    bins = {}

    def on_miss(clock, nbytes):
        window = clock // DEFAULT_WINDOW_TICKS
        bins[window] = bins.get(window, 0) + nbytes

    cache = TickLRU(size_bytes, assoc, line_bytes)
    return cache.replay(events, on_miss), bins
