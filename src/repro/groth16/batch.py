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

__all__ = ["batch_verify", "weighted_publics"]


def weighted_publics(vk, weighted):
    """``sum_i r_i * vk.fold_publics(publics_i)`` over the ``(r_i,
    publics_i)`` of *weighted*, folded in ``Fr`` first:

        ``(sum_i r_i) * ic[0] + sum_k (sum_i r_i * publics_i[k]) * ic[k + 1]``

    — one scalar multiplication per ``ic`` point, whatever the batch size.
    Every ``publics_i`` passes ``vk.check_publics`` first."""
    fr = vk.curve.fr
    coeffs = [0] * len(vk.ic)
    for r, publics in weighted:
        vk.check_publics(publics)
        coeffs[0] += r
        for k, x in enumerate(publics, 1):
            coeffs[k] += r * x
    acc = vk.curve.g1.infinity()
    for c, point in zip(coeffs, vk.ic):
        acc = acc + point * (c % fr.modulus)
    return acc


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
    g1 = curve.g1
    # 128-bit weights keep the folding cheap without weakening the check.
    weights = [rng.getrandbits(128) | 1 for _ in batch]
    acc_l = weighted_publics(vk, zip(weights, [publics for _, publics in batch]))
    sum_r = sum(weights) % curve.fr.modulus
    pairs = []
    acc_c = g1.infinity()
    for r, (proof, _) in zip(weights, batch):
        pairs.append((proof.a * r, proof.b))
        acc_c = acc_c + proof.c * r

    # The fixed legs walk stored lines.
    fixed = vk.prepared
    pairs.append((-(vk.alpha1 * sum_r), fixed.beta2))
    pairs.append((-acc_l, fixed.gamma2))
    pairs.append((-acc_c, fixed.delta2))
    t = RUN.tracer
    if t is not None:
        # The reference route loops over the vk's own points: a traced check
        # is charged their conversion too.
        for Q in (vk.beta2, vk.gamma2, vk.delta2):
            Q.charge_to_affine(t)
    return engine_for(curve).pairing_check(pairs)
