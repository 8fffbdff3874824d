"""Batch verification of Groth16 proofs.

A server verifying a stream of proofs (the paper's motivating "millions of
transactions" scenario) need not pay four Miller loops per proof: with
random weights ``r_i`` the per-proof equations

    ``e(A_i, B_i) = e(alpha, beta) * e(L_i, gamma) * e(C_i, delta)``

fold into one product check whose gamma/delta legs collapse into single
pairings of pre-combined G1 points:

    ``prod_i e(r_i * A_i, B_i)
      * e(-sum_i r_i * L_i, gamma)
      * e(-sum_i r_i * C_i, delta)
      * e(-(sum r_i) * alpha, beta)  == 1``

— ``k + 3`` Miller loops and **one** final exponentiation for ``k``
proofs, versus ``4k`` Miller loops and ``k`` final exponentiations
individually.  The random weights make accepting any invalid proof in the
batch as hard as a single forgery (a bad proof survives only if its error
term is annihilated by the random ``r_i``).
"""

from __future__ import annotations

from repro.context import RUN
from repro.curves.pairing import engine_for

__all__ = ["batch_verify"]

def batch_verify(vk, proofs_with_publics, rng):
    """Verify many proofs against one verifying key in a single check.

    Parameters
    ----------
    vk:
        The shared :class:`~repro.groth16.keys.VerifyingKey`.
    proofs_with_publics:
        Iterable of ``(proof, publics)`` pairs, *publics* as accepted by
        :func:`repro.groth16.verifier.verify`.
    rng:
        Source of the batching weights; must be unpredictable to the
        prover (use a fresh system RNG in production).

    Returns True iff **every** proof in the batch is valid.  An empty
    batch is vacuously valid.
    """
    batch = list(proofs_with_publics)
    m = RUN.metrics
    if m is not None:
        m.inc("repro_groth16_batch_verify_total")
        m.observe("repro_groth16_batch_size", len(batch))
        m.inc("repro_groth16_batch_pairings_total", len(batch) + 3 if batch else 0)
    if not batch:
        return True
    # Fan large batches out through the worker pool (chunked folded
    # checks with independent weight seeds) when one is installed.
    from repro.parallel.pool import active_pool

    pool = active_pool()
    if pool is not None and pool.enabled_for(len(batch), "batch"):
        from repro.parallel.kernels import batch_verify_parallel

        return batch_verify_parallel(vk, batch, rng, pool)
    curve = vk.curve
    fr = curve.fr
    g1 = curve.g1

    pairs = []
    sum_r = 0
    acc_l = g1.infinity()
    acc_c = g1.infinity()
    for proof, publics in batch:
        # 128-bit weights keep the folding cheap without weakening the check.
        r = rng.getrandbits(128) | 1
        sum_r = fr.add(sum_r, r % fr.modulus)
        vk_x = vk.fold_publics(publics)
        pairs.append((proof.a * r, proof.b))
        acc_l = acc_l + vk_x * r
        acc_c = acc_c + proof.c * r

    # The fixed legs walk stored lines; a traced fold keeps the points (the
    # pinning rule: tracers never meet, or build, the vk's prepared form).
    g2 = vk
    if RUN.tracer is None:
        g2 = vk.prepared
    pairs.append((-(vk.alpha1 * sum_r), g2.beta2))
    pairs.append((-acc_l, g2.gamma2))
    pairs.append((-acc_c, g2.delta2))
    return engine_for(curve).pairing_check(pairs)
