"""Iterative radix-2 number-theoretic transforms.

This is the FFT kernel of the proving stage (snarkjs' ``fft`` module).  The
kernels are instrumented as *parallel* regions: each butterfly pass is a
data-parallel sweep, which is precisely the parallelism the paper's
scalability analysis attributes to the proving stage.

Memory traffic is reported as per-pass strided bursts over the coefficient
array — a faithful model of the streaming access pattern of an iterative
NTT, and the source of the proving stage's bandwidth demand in Table III.
"""

from __future__ import annotations

from repro.context import RUN

__all__ = ["ntt", "intt", "coset_ntt", "coset_intt", "bit_reverse_permute",
           "transform_raw"]

#: Bytes per scalar-field coefficient in the traffic model (4 x 64-bit limbs;
#: both scalar fields fit in 256 bits).
COEFF_BYTES = 32


# codelint: ignore[RC501] -- serial reference permutation; the polled path is _transform
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

    The worker-side kernel of the parallel backend and the untraced fast
    path of :func:`_transform` share this loop; it mutates and returns
    *values*.
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


def _transform(field, values, root, tracer_label):
    """Core iterative Cooley–Tukey transform using the given n-th root."""
    n = len(values)
    if n & (n - 1):
        raise ValueError(f"NTT length must be a power of two, got {n}")
    if n <= 1:
        return values
    t = RUN.tracer
    if t is None:
        # Parallel fast path: decimated sub-transforms in the worker pool
        # (never under a tracer — the analytical model sees the serial
        # algorithm).  The kernel replicates this function's metrics,
        # fault-site and deadline behavior.
        from repro.parallel.pool import active_pool

        pool = active_pool()
        if pool is not None and pool.enabled_for(n, "ntt"):
            from repro.parallel.kernels import ntt_transform_parallel

            return ntt_transform_parallel(field, values, root, pool)
    # One metrics check per transform — amortized over (n/2)·log2(n)
    # butterflies, so the disabled path stays on the fast branch below.
    m = RUN.metrics
    if m is not None:
        m.inc("repro_ntt_transforms_total")
        m.inc("repro_ntt_butterflies_total", (n >> 1) * (n.bit_length() - 1))
        m.observe("repro_ntt_size", n)
    if RUN.faults is not None:
        RUN.faults.check("ntt:transform")
    if RUN.deadline is not None:
        RUN.deadline.check()
    r = field.modulus
    if t is None:
        # Untraced fast path: raw modular arithmetic.
        return transform_raw(values, root, r)
    base = t.aspace.alloc(n * COEFF_BYTES)
    t.op("ntt_setup")
    bit_reverse_permute(values)
    # Precompute per-stage twiddle tables (real libraries cache these).
    length = 2
    while length <= n:
        w_len = pow(root, n // length, r)
        half = length >> 1
        with t.region(f"{tracer_label}_pass", parallel=True, items=n // length):
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
            t.mem_block(base, n * COEFF_BYTES, write=False)
            t.mem_block(base, n * COEFF_BYTES, write=True)
        length <<= 1
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
    out = _transform(field, list(evals), domain.omega_inv, "intt")
    n_inv = domain.n_inv
    r = field.modulus
    t = RUN.tracer
    if t is None:
        return [v * n_inv % r for v in out]
    with t.region("intt_scale", parallel=True, items=len(out)):
        return [field.mul(v, n_inv) for v in out]


def _coset_scale(field, values, g):
    """Scale ``values[i] *= g^i`` (entering/leaving the evaluation coset)."""
    r = field.modulus
    t = RUN.tracer
    out = [0] * len(values)
    acc = 1
    if t is None:
        for i, v in enumerate(values):
            out[i] = v * acc % r
            acc = acc * g % r
        return out
    with t.region("coset_scale", parallel=True, items=len(values)):
        for i, v in enumerate(values):
            out[i] = field.mul(v, acc)
            acc = acc * g % r
    return out


def coset_ntt(field, coeffs, domain):
    """Evaluate a coefficient vector on the coset ``g * <omega>``."""
    return _transform(field, _coset_scale(field, coeffs, domain.coset_gen),
                      domain.omega, "ntt")


def coset_intt(field, evals, domain):
    """Recover coefficients from evaluations on the coset ``g * <omega>``."""
    out = intt(field, evals, domain)
    return _coset_scale(field, out, domain.coset_gen_inv)
