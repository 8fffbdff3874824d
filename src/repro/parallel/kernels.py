"""Parent-side parallel kernels: chunk, ship, reassemble.

Each kernel mirrors one serial hot path — the bucket MSM, the iterative
NTT, the setup's fixed-base sweeps, batch verification — by fanning
chunks out through the installed :class:`~repro.parallel.pool.WorkerPool`
and reassembling the partial
results into *exactly* the value the serial algorithm produces:

- **MSM** — window slicing: the serial kernel's result is the Horner sum
  ``sum_w 2^(c*w) * S_w`` over its window sums ``S_w``; worker ``j`` of
  ``k`` recodes the full live term list exactly as the serial kernel does
  and returns ``2^(c*lo) * sum_{lo <= w < hi} 2^(c*(w-lo)) * S_w`` for its
  window range.  The group arithmetic is exact, so the ``k`` partials add
  up to the identical point (the serialized affine form is bit-identical;
  intermediate Jacobian ``Z`` coordinates may differ, which serialization
  normalizes away).
- **NTT** — decimation by ``k``: sub-transform ``j`` is the length-``n/k``
  NTT of ``x[j::k]`` under ``root^k``, and the parent runs the last
  ``log2 k`` radix-2 butterfly stages over them.  Modular arithmetic is
  exact, and the transform is mathematically unique, so the output ints
  equal the serial ones.
- **fixed-base** — workers multiply the shipped base by their chunk with
  the serial batch walk and return its affine ``Z == 1`` multiples.

Resilience interop: each kernel *arms* its serial fault site
(``FaultInjector.arm``) with the same per-call cadence as the serial
kernel, ships a due spec into the first chunk's context so the fault
fires inside a worker, and re-raises the decoded typed error at the
parent — the retry/degrade policies above cannot tell the difference
from a serial fault.
"""

from __future__ import annotations

from repro.context import RUN
from repro.msm.glv import msm_glv
from repro.msm.terms import live_terms
from repro.resilience import faults
from repro.resilience.errors import ReproError

__all__ = [
    "batch_verify_parallel",
    "fixed_base_mul_many",
    "msm_parallel",
    "ntt_transform_parallel",
]


def _point_in(group, aff):
    """Decode an affine wire tuple back into a Point of *group*."""
    if aff is None:
        return group.infinity()
    return group.point_unchecked(*aff)


def _arm_site(site):
    """Arm the fault site (serial cadence) and return ``(spec, ctxs_entry)``."""
    inj = RUN.faults
    if inj is None:
        return None, None
    spec = inj.arm(site)
    if spec is None:
        return None, None
    return spec, {"fault": {"site": spec.site, "kind": spec.kind}}


def _mapped(pool, fn_name, payloads, spec=None, fault_ctx=None, label=None):
    """``pool.map`` with fault-spec shipping: a due spec rides with the
    first chunk, fires inside that worker, and is marked fired here —
    whether it surfaced as the expected typed error or (if the worker
    never reached the site) is raised by the parent itself."""
    ctxs = None
    if fault_ctx is not None:
        ctxs = [None] * len(payloads)
        ctxs[0] = fault_ctx
    try:
        results, fired = pool.map(fn_name, payloads, ctxs=ctxs, label=label)
    except ReproError:
        if spec is not None:
            faults.fire(spec)
        raise
    if spec is not None:
        # Worker never reached the site (degenerate chunk): preserve the
        # fires-once guarantee by raising the fault at the parent.
        raise faults.fire(spec)
    return results


# -- MSM ---------------------------------------------------------------------------


def msm_parallel(group, points, scalars, pool):
    """Window-sliced MSM: ``k = pool.workers`` slices of the windows in
    workers, their partial sums added here.

    Same input contract and fault-site cadence as the serial kernels.
    Below ``pool.min_msm`` live terms the serial
    :func:`~repro.msm.glv.msm_glv` runs in this process; otherwise every
    worker gets the full live term list and slice ``(j, k)`` of its windows
    (``msm_window_slice``), and the returned point equals the serial result.
    """
    pairs = live_terms(group, points, scalars)
    if not pool.enabled_for(len(pairs), "msm"):
        return msm_glv(group, points, scalars)

    m = RUN.metrics
    if m is not None:
        m.observe("repro_msm_points", len(pairs))
        m.inc("repro_parallel_msm_total")
    spec, fault_ctx = _arm_site("msm:pippenger")
    if RUN.deadline is not None:
        RUN.deadline.check()

    live_points = [pt for pt, _ in pairs]
    live_scalars = [s for _, s in pairs]
    k = pool.workers
    payloads = [
        {"group": group.name, "points": live_points, "scalars": live_scalars,
         "part": (j, k)}
        for j in range(k)
    ]
    partials = _mapped(pool, "msm_window_slice", payloads, spec=spec,
                       fault_ctx=fault_ctx, label="msm")
    acc = group.infinity()
    for aff in partials:
        acc = acc + _point_in(group, aff)
    return acc


# -- NTT ---------------------------------------------------------------------------


def _sub_count(workers, n):
    """Largest power-of-two sub-transform count <= workers with subs of
    length >= 2."""
    k = 1
    while k * 2 <= workers and (n // (k * 2)) >= 2:
        k *= 2
    return k


def ntt_transform_parallel(field, values, root, pool):
    """Decimated parallel NTT; returns a new list equal to the serial
    transform of *values* under *root* (exact modular arithmetic, so the
    ints are identical)."""
    n = len(values)
    r = field.modulus
    k = _sub_count(pool.workers, n)
    if k < 2:
        from repro.poly.ntt import transform_raw

        if RUN.faults is not None:
            RUN.faults.check("ntt:transform")
        if RUN.deadline is not None:
            RUN.deadline.check()
        return transform_raw(list(values), root, r)

    m = RUN.metrics
    if m is not None:
        m.inc("repro_parallel_ntt_total")
    spec, fault_ctx = _arm_site("ntt:transform")
    if RUN.deadline is not None:
        RUN.deadline.check()

    sub_root = pow(root, k, r)
    payloads = [
        {"values": values[j::k], "root": sub_root, "modulus": r}
        for j in range(k)
    ]
    subs = _mapped(pool, "ntt_sub", payloads, spec=spec,
                   fault_ctx=fault_ctx, label="ntt")

    # Parent combine: the last log2(k) radix-2 stages.  With K subs left,
    # sub j is the NTT of x[j::K] under root^K; merging subs j and j + K/2
    # gives that of x[j::K/2] under w = root^(K/2):
    # Y[t] = E[t] + w^t O[t], Y[t + m] = E[t] - w^t O[t] (w^m = -1).
    while len(subs) > 1:
        half = len(subs) // 2
        w = pow(root, half, r)
        m_len = len(subs[0])
        twiddles = [1] * m_len
        for t in range(1, m_len):
            twiddles[t] = twiddles[t - 1] * w % r
        merged = []
        for even, odd in zip(subs[:half], subs[half:]):
            odd = [o * tw % r for o, tw in zip(odd, twiddles)]
            merged.append([(e + o) % r for e, o in zip(even, odd)]
                          + [(e - o) % r for e, o in zip(even, odd)])
        subs = merged
    return subs[0]


# -- fixed-base (setup) ------------------------------------------------------------


def fixed_base_mul_many(table, scalars, pool):
    """Parallel :meth:`FixedBaseTable.mul_many` over the table's base.

    Each task ships the base's affine coordinates and multiplies it by
    its chunk with the untraced batch walk, which stores no table;
    results decode to ``Z == 1`` points whose serialized form is
    identical to the serial walk's.
    """
    group = table.group
    from repro.parallel.pool import chunk_slices

    scalars = list(scalars)
    base = table.base.to_affine()
    payloads = [
        {
            "group": group.name,
            "base": base,
            "bits": table.bits,
            "scalars": scalars[start:stop],
        }
        for start, stop in chunk_slices(len(scalars), pool.workers)
    ]
    m = RUN.metrics
    if m is not None:
        m.inc("repro_parallel_fixed_base_total")
    chunks, _ = pool.map("fixed_base_chunk", payloads, label="fixed_base")
    return [_point_in(group, aff) for chunk in chunks for aff in chunk]


# -- batch verification ------------------------------------------------------------


def batch_verify_parallel(vk, batch, rng, pool):
    """Fan a proof batch out in chunks; True iff every chunk verifies.

    Each chunk gets an independent weight seed drawn from *rng*, so the
    accept/reject outcome matches the serial check (soundness per chunk
    is the same 2^-128 folding argument; the exact random weights differ,
    which the boolean contract never exposes).
    """
    from repro.groth16.serialize import proof_to_bytes, vk_to_bytes
    from repro.parallel.pool import chunk_slices

    vk_blob = vk_to_bytes(vk)
    if RUN.deadline is not None:
        RUN.deadline.check()
    payloads = []
    for start, stop in chunk_slices(len(batch), pool.workers):
        chunk = batch[start:stop]
        payloads.append({
            "vk": vk_blob,
            "proofs": [(proof_to_bytes(p), list(publics)) for p, publics in chunk],
            "seed": rng.getrandbits(64),
        })
    m = RUN.metrics
    if m is not None:
        m.inc("repro_parallel_batch_verify_total")
    results, _ = pool.map("batch_verify_chunk", payloads, label="batch_verify")
    return all(results)
