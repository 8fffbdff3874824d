"""The efficient endomorphisms of ``y^2 = x^3 + b`` (docs/KERNELS.md,
"Membership by endomorphism").

Both curves have ``j``-invariant 0, so ``E(Fq)`` carries
``phi(x, y) = (beta * x, y)``, ``beta`` a primitive cube root of unity
(``phi^2 + phi + 1 = 0``), and the sextic twist carries the
untwist-Frobenius-twist map ``psi(x, y) = (c_x * conj(x), c_y * conj(y))``
(``psi^2 - t * psi + p = 0``, ``t`` the trace of ``E / Fq``).  Each acts on
the order-``r`` subgroup as one integer — a root ``lambda`` of
``x^2 + x + 1`` for ``phi``, ``p mod r`` for ``psi`` — which buys a short
membership ladder (:meth:`~repro.curves.curve.Group.in_subgroup`) and, for
``phi``, the Gallant–Lambert–Vanstone split ``k = k1 + lambda * k2`` with
``|k1|, |k2| ~ sqrt(r)`` (Babai rounding against a short lattice basis)
behind ``Point.__mul__`` and :func:`repro.msm.glv.msm_glv`.  The twist has
``j = 0`` too, so the same ``phi`` — ``beta`` in ``Fq`` scaling both
``Fq2`` components of ``x`` — splits G2, while ``psi`` (the shorter
ladder) stays its membership test.

Constants are *derived*, never typed in: :func:`phi` and :func:`psi` return
both orientations (either cube root, either twist type) and
:class:`~repro.curves.curve.Group` installs the one that passes its checks
on the generator.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from math import isqrt

from repro.fields.prime_field import PrimeField

__all__ = ["Endomorphism", "decompose_scalar", "phi", "psi"]


@dataclass(frozen=True)
class Endomorphism:
    """An endomorphism ``sigma`` of the whole curve group and its action on
    the order-``r`` subgroup."""

    map: object         # affine (x, y) -> sigma(x, y); sigma(x, -y) = -sigma(x, y)
    char: tuple         # (c, d): sigma^2 + c*sigma + d = 0 on every point
    eigen: int          # sigma = [eigen] on the subgroup, |eigen| < r / 2
    basis: tuple = None  # a GLV split's short (v1, v2), each a + b*eigen = 0 mod r


def _symmetric(a, r):
    return a - r if 2 * a > r else a


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


def _round_div(a, b):
    """Nearest-integer division ``round(a / b)`` for ``b > 0``."""
    q, rem = divmod(a, b)
    if 2 * rem >= b:
        q += 1
    return q


def decompose_scalar(basis, r, k):
    """Split ``k (mod r)`` into ``(k1, k2)`` with ``k1 + k2*lam = k (mod r)``.

    Babai rounding of ``(k, 0)`` against the short basis; both halves are
    bounded by roughly ``sqrt(r)`` (the property suite pins
    ``bit_length <= r.bit_length()//2 + 2``).
    """
    (a1, b1), (a2, b2) = basis
    c1 = _round_div(b2 * k, r)
    c2 = _round_div(-b1 * k, r)
    k1 = k - c1 * a1 - c2 * a2
    k2 = -c1 * b1 - c2 * b2
    return k1, k2


def _phi_map(scale, beta, x, y):
    return (scale(x, beta), y)


def phi(fq, r, scale=None):
    """Both candidates for ``phi``: ``lambda`` and the two ``beta`` from
    square roots of ``-3`` in ``Fr`` / ``Fq``.  ``scale(x, beta)`` is the
    coordinate times ``beta``: ``fq.mul`` on ``E(Fq)`` (the default),
    ``tower.f2_scale`` on the twist."""
    fr = PrimeField(r, f"{fq.name}.glv.fr")
    lam = fr.mul(fr.sub(fr.sqrt(fr.reduce(-3)), 1), fr.inv(2))
    beta = fq.mul(fq.sub(fq.sqrt(fq.reduce(-3)), 1), fq.inv(2))
    basis, scale = _short_vectors(r, lam), scale or fq.mul
    return [Endomorphism(partial(_phi_map, scale, b), (1, 1), _symmetric(lam, r), basis)
            for b in (beta, fq.modulus - 1 - beta)]


def _psi_map(tower, cx, cy, x, y):
    mul, conj = tower.f2_mul, tower.f2_conj
    return (mul(cx, conj(x)), mul(cy, conj(y)))


def psi(tower, r, t):
    """Both candidates for ``psi`` on the twist: ``(xi^((p-1)/3),
    xi^((p-1)/2))`` (D-type) and its inverse (M-type)."""
    p = tower.fq.modulus
    cx, _, gw = tower.frobenius_constants
    cy = tower.f2_mul(cx, gw)
    return [Endomorphism(partial(_psi_map, tower, *consts), (-t, p), _symmetric(p % r, r))
            for consts in ((cx, cy), (tower.f2_inv(cx), tower.f2_inv(cy)))]
