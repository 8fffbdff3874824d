"""Iterative radix-2 number-theoretic transforms.

This is the FFT kernel of the proving stage (snarkjs' ``fft`` module).
Every call computes its value by the raw-integer loop, :func:`transform_raw`
(the worker pool's decimated kernel when one is installed, never under a
tracer), and a traced call is then *charged* the per-operation passes
(docs/KERNELS.md, "Charging a reference"): each butterfly pass a
data-parallel region of ``n/2`` butterflies, one ``field.mul``,
``field.add`` and ``field.sub`` each, which is precisely the parallelism the
paper's scalability analysis attributes to the proving stage.  The scalings
into and out of the transform are charged one ``field.mul`` an element.
The passes executed live in ``tests/oracle.py``.

Memory traffic is reported as per-pass strided bursts over the coefficient
array — a faithful model of the streaming access pattern of an iterative
NTT, and the source of the proving stage's bandwidth demand in Table III.
"""

from __future__ import annotations

from repro.context import RUN, Tally, charge, scoped
from repro.parallel.pool import active_pool

__all__ = ["ntt", "intt", "coset_ntt", "coset_intt", "bit_reverse_permute",
           "transform_raw"]

#: Bytes per scalar-field coefficient in the traffic model (4 x 64-bit limbs;
#: both scalar fields fit in 256 bits).
COEFF_BYTES = 32


# codelint: ignore[RC501] -- serial leaf of transform_raw; its callers poll before the transform
def bit_reverse_permute(values):
    """In-place bit-reversal permutation of a power-of-two-length list."""
    n = len(values)
    j = 0
    for i in range(1, n):
        bit = n >> 1
        while j & bit:
            j ^= bit
            bit >>= 1
        j |= bit
        if i < j:
            values[i], values[j] = values[j], values[i]
    return values


# codelint: ignore[RC501] -- worker-side leaf kernel; its callers poll before dispatch
def transform_raw(values, root, modulus):
    """Uninstrumented iterative Cooley–Tukey NTT over plain ints.

    The worker-side kernel of the parallel backend and the serial route of
    :func:`_transform` share this loop; it mutates and returns *values*.
    """
    n = len(values)
    if n & (n - 1):
        raise ValueError(f"NTT length must be a power of two, got {n}")
    if n <= 1:
        return values
    r = modulus
    bit_reverse_permute(values)
    length = 2
    while length <= n:
        w_len = pow(root, n // length, r)
        half = length >> 1
        for start in range(0, n, length):
            w = 1
            for k in range(start, start + half):
                u = values[k]
                v = values[k + half] * w % r
                values[k] = (u + v) % r
                values[k + half] = (u - v) % r
                w = w * w_len % r
        length <<= 1
    return values


def _tally(*calls):
    """What *calls* report to a tracer, read with a scratch tally."""
    with scoped("tracer", Tally()) as tally:
        for call in calls:
            call(0, 0)
    return tally


def _charge_passes(t, field, n, label):
    """Charge *t* the per-operation passes of a length-*n* transform: the
    coefficient array allocated and an ``ntt_setup``, then per pass a
    ``parallel`` ``<label>_pass`` region of ``n/2`` butterflies and one
    streaming read and write of the array."""
    butterfly = _tally(field.mul, field.add, field.sub)
    butterfly.op("ntt_butterfly")
    base = t.aspace.alloc(n * COEFF_BYTES)
    t.op("ntt_setup")
    length = 2
    while length <= n:
        with t.region(f"{label}_pass", parallel=True, items=n // length):
            charge(t, butterfly, n >> 1)
            t.mem_block(base, n * COEFF_BYTES, write=False)
            t.mem_block(base, n * COEFF_BYTES, write=True)
        length <<= 1


def _charge_scale(t, field, name, n):
    """Charge *t* one ``field.mul`` for each of *n* elements, in a
    ``parallel`` region *name*."""
    with t.region(name, parallel=True, items=n):
        charge(t, _tally(field.mul), n)


def _transform(field, values, root, label):
    """Core iterative Cooley–Tukey transform using the given n-th root."""
    n = len(values)
    if n & (n - 1):
        raise ValueError(f"NTT length must be a power of two, got {n}")
    if n <= 1:
        return values
    # One metrics check per transform — amortized over (n/2)·log2(n)
    # butterflies — whichever route runs it.
    m = RUN.metrics
    if m is not None:
        m.inc("repro_ntt_transforms_total")
        m.inc("repro_ntt_butterflies_total", (n >> 1) * (n.bit_length() - 1))
        m.observe("repro_ntt_size", n)
    pool = active_pool()
    # The pool splits a transform into sub-transforms of length >= 2, so
    # one shorter than 4 stays on the serial route below.
    if n >= 4 and pool is not None and pool.enabled_for(n, "ntt"):
        # The kernel arms this site's fault and polls the deadline itself
        # (imported lazily: it pulls in the MSM stack).
        from repro.parallel.kernels import ntt_transform_parallel

        return ntt_transform_parallel(field, values, root, pool)
    if RUN.faults is not None:
        RUN.faults.check("ntt:transform")
    if RUN.deadline is not None:
        RUN.deadline.check()
    transform_raw(values, root, field.modulus)
    t = RUN.tracer
    if t is not None:
        _charge_passes(t, field, n, label)
    return values


def ntt(field, coeffs, domain):
    """Forward transform: coefficients -> evaluations on the domain."""
    if len(coeffs) != domain.size:
        raise ValueError(f"expected {domain.size} coefficients, got {len(coeffs)}")
    return _transform(field, list(coeffs), domain.omega, "ntt")


def intt(field, evals, domain):
    """Inverse transform: evaluations on the domain -> coefficients."""
    if len(evals) != domain.size:
        raise ValueError(f"expected {domain.size} evaluations, got {len(evals)}")
    return _intt_scale(field, _transform(field, list(evals), domain.omega_inv, "intt"),
                       domain.n_inv)


def _intt_scale(field, values, n_inv):
    """Scale every value by ``1/n`` (leaving the inverse transform)."""
    r = field.modulus
    out = [v * n_inv % r for v in values]
    t = RUN.tracer
    if t is not None:
        _charge_scale(t, field, "intt_scale", len(out))
    return out


def _coset_scale(field, values, g):
    """Scale ``values[i] *= g^i`` (entering/leaving the evaluation coset)."""
    r = field.modulus
    out = [0] * len(values)
    acc = 1
    for i, v in enumerate(values):
        out[i] = v * acc % r
        acc = acc * g % r
    t = RUN.tracer
    if t is not None:
        _charge_scale(t, field, "coset_scale", len(out))
    return out


def coset_ntt(field, coeffs, domain):
    """Evaluate a coefficient vector on the coset ``g * <omega>``."""
    return _transform(field, _coset_scale(field, coeffs, domain.coset_gen),
                      domain.omega, "ntt")


def coset_intt(field, evals, domain):
    """Recover coefficients from evaluations on the coset ``g * <omega>``."""
    out = intt(field, evals, domain)
    return _coset_scale(field, out, domain.coset_gen_inv)
