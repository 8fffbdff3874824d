"""GLV endomorphism scalar decomposition for the G1 MSM.

Both supported curves have ``j``-invariant 0 (``y^2 = x^3 + b``), so G1
carries the fast endomorphism ``phi(x, y) = (beta * x, y)`` where ``beta``
is a primitive cube root of unity in ``Fq``.  On the order-``r`` subgroup
``phi`` acts as multiplication by ``lambda``, a root of
``x^2 + x + 1 = 0 (mod r)``.  Gallant–Lambert–Vanstone: split every scalar
``k`` as ``k = k1 + lambda * k2 (mod r)`` with ``|k1|, |k2| ~ sqrt(r)``
(Babai rounding against a short lattice basis from the extended Euclidean
algorithm), map the sign of each half into a point negation, and feed the
doubled point list with *half-width* scalars to the signed-digit kernel —
which sizes its window count from the widest actual scalar, so the window
passes (and the Horner doublings) halve.

Parameters are *derived*, not hard-coded: ``lambda`` and ``beta`` come
from square roots of ``-3`` in ``Fr`` / ``Fq``, and the matching
``(beta, lambda)`` pair is selected by testing ``phi(G) == lambda * G`` on
the group generator.  Groups without the endomorphism (G2, or a hypothetical
``a != 0`` curve) get ``None`` from :func:`glv_params` and the kernel falls
back to the plain signed-digit path.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

from repro.fields.prime_field import PrimeField
from repro.msm.terms import live_terms
from repro.msm.wnaf import msm_wnaf, signed_bucket_msm
from repro.obs import metrics
from repro.resilience import retry as resilience

__all__ = ["GLVParams", "glv_params", "decompose_scalar", "msm_glv"]


@dataclass(frozen=True)
class GLVParams:
    """Derived endomorphism constants for one group."""

    beta: int      # primitive cube root of unity in Fq
    lam: int       # matching root of x^2 + x + 1 mod r
    v1: tuple      # short lattice vector (a1, b1): a1 + b1*lam = 0 mod r
    v2: tuple      # second short vector (a2, b2)


#: Per-process parameter cache: group name -> GLVParams | None.
#: Derivation costs two Tonelli square roots and a scalar mul; groups are
#: process-global singletons, so the memo is safe to share per process.
_PARAMS = {}


def _short_vectors(r, lam):
    """Two short lattice vectors ``(a, b)`` with ``a + b*lam = 0 (mod r)``.

    Extended-Euclid remainder sequence on ``(r, lam)`` truncated at
    ``sqrt(r)`` — the classic GLV basis construction (Guide to ECC,
    Alg. 3.74): every row satisfies ``s*r + t*lam = rem``, i.e.
    ``(rem, -t)`` is in the lattice.
    """
    sqrt_r = isqrt(r)
    rows = [(r, 0), (lam, 1)]  # (remainder, t-coefficient)
    while rows[-1][0] != 0 and rows[-1][0] >= sqrt_r:
        (r0, t0), (r1, t1) = rows[-2], rows[-1]
        q = r0 // r1
        rows.append((r0 - q * r1, t0 - q * t1))
    # rows[-1] is row l+1, the first remainder below sqrt(r); rows[-2] is
    # row l.  The second vector is the shorter of the two rows *bracketing*
    # row l+1 — row l and row l+2 (one extra division step) — either of
    # which spans a determinant-(+-r) basis with row l+1.
    (rl, tl), (rl1, tl1) = rows[-2], rows[-1]
    v1 = (rl1, -tl1)
    if rl1 != 0:
        q = rl // rl1
        rl2, tl2 = rl - q * rl1, tl - q * tl1
    else:
        rl2, tl2 = rl, tl
    if rl * rl + tl * tl <= rl2 * rl2 + tl2 * tl2:
        v2 = (rl, -tl)
    else:
        v2 = (rl2, -tl2)
    # Normalize orientation to det(v1, v2) == +r: the Babai rounding in
    # :func:`decompose_scalar` assumes it (a flipped sign would push the
    # rounded lattice point *away* from (k, 0) and blow up the halves).
    a1, b1 = v1
    a2, b2 = v2
    if a1 * b2 - a2 * b1 < 0:
        v2 = (-a2, -b2)
    return v1, v2


def glv_params(group):
    """Derive (and memoize) the GLV parameters for *group*.

    Returns ``None`` when the group does not expose the endomorphism —
    G2 (extension-field coordinates) or curves where ``-3`` is a
    non-residue.
    """
    name = group.name
    if name in _PARAMS:
        return _PARAMS[name]
    params = _derive(group)
    # codelint: ignore[RC103] -- per-process memo of pure derived constants
    _PARAMS[name] = params
    return params


def _derive(group):
    if not hasattr(group.ops, "fq"):  # G2: coordinates live in Fq2
        return None
    fq = group.ops.fq
    r = group.order
    fr = PrimeField(r, f"{group.name}.glv.fr")
    s_r = fr.sqrt(fr.reduce(-3))
    s_q = fq.sqrt(fq.reduce(-3))
    if s_r is None or s_q is None:
        return None
    inv2_r = fr.inv(2)
    inv2_q = fq.inv(2)
    lam1 = fr.mul(fr.sub(s_r, 1), inv2_r)
    lam2 = r - 1 - lam1  # the other root (roots sum to -1)
    beta1 = fq.mul(fq.sub(s_q, 1), inv2_q)
    beta2 = fq.modulus - 1 - beta1
    gen = group.generator
    gx, gy = gen.to_affine()
    for lam in (lam1, lam2):
        target = gen * lam
        for beta in (beta1, beta2):
            if group.point_unchecked(fq.mul(beta, gx), gy) == target:
                v1, v2 = _short_vectors(r, lam)
                return GLVParams(beta=beta, lam=lam, v1=v1, v2=v2)
    return None


def _round_div(a, b):
    """Nearest-integer division ``round(a / b)`` for ``b > 0``."""
    q, rem = divmod(a, b)
    if 2 * rem >= b:
        q += 1
    return q


def decompose_scalar(params, r, k):
    """Split ``k (mod r)`` into ``(k1, k2)`` with ``k1 + k2*lam = k (mod r)``.

    Babai rounding of ``(k, 0)`` against the short basis; both halves are
    bounded by roughly ``sqrt(r)`` (the property suite pins
    ``bit_length <= r.bit_length()//2 + 2``).
    """
    a1, b1 = params.v1
    a2, b2 = params.v2
    c1 = _round_div(b2 * k, r)
    c2 = _round_div(-b1 * k, r)
    k1 = k - c1 * a1 - c2 * a2
    k2 = -c1 * b1 - c2 * b2
    return k1, k2


def msm_glv(group, points, scalars, window=None):
    """MSM via GLV decomposition feeding one half-width signed-digit MSM.

    Falls back to :func:`~repro.msm.wnaf.msm_wnaf` unchanged when the
    group has no usable endomorphism (G2), so callers can route every
    group through this entry point.
    """
    params = glv_params(group)
    if params is None:
        return msm_wnaf(group, points, scalars, window=window)
    pairs = live_terms(group, points, scalars, window)
    if not pairs:
        return group.infinity()

    m = metrics.CURRENT
    if m is not None:
        m.inc("repro_msm_glv_calls_total")
        m.inc("repro_msm_glv_decompositions_total", len(pairs))

    fq = group.ops.fq
    order = group.order
    beta = params.beta
    halves = []  # live (point, half-width scalar) terms, signs folded into the points
    for i, (pt, k) in enumerate(pairs):
        # Cooperative deadline poll amortized over the decomposition loop.
        if not i & 255:
            if resilience.DEADLINE is not None:
                resilience.DEADLINE.check()
        k1, k2 = decompose_scalar(params, order, k)
        x, y = pt
        if k1 > 0:
            halves.append((pt, k1))
        elif k1 < 0:
            halves.append(((x, fq.neg(y)), -k1))
        if k2 > 0:
            halves.append(((fq.mul(beta, x), y), k2))
        elif k2 < 0:
            halves.append(((fq.mul(beta, x), fq.neg(y)), -k2))

    return signed_bucket_msm(group, halves, window)
