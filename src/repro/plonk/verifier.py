"""The PLONK verifier.

Re-derives every Fiat-Shamir challenge from the transcript, checks the two
batched KZG openings, then checks the quotient identity at ``zeta`` using
the opened evaluations:

    ``gate + alpha*perm + alpha^2*boundary == t(zeta) * Z_H(zeta)``.
"""

from __future__ import annotations

from repro.plonk.prover import OPENED_AT_ZETA
from repro.plonk.transcript import Transcript

__all__ = ["plonk_verify"]


def plonk_verify(pre, proof, public_values):
    """Return True iff *proof* is valid for *public_values*: the values
    :func:`~repro.groth16.witness.public_inputs` returns, as Groth16's
    verifier takes them."""
    curve = pre.curve
    fr = curve.fr
    n = pre.n
    kzg = pre.kzg
    compiled = pre.compiled

    if len(public_values) != len(compiled.public_vars):
        raise ValueError(
            f"expected {len(compiled.public_vars)} public values, "
            f"got {len(public_values)}"
        )
    public_values = [v % fr.modulus for v in public_values]

    # -- replay the transcript ------------------------------------------------
    transcript = Transcript(curve)
    transcript.absorb_scalar(n)
    for v in public_values:
        transcript.absorb_scalar(v)
    for commit in (proof.commit_a, proof.commit_b, proof.commit_c):
        transcript.absorb_point(commit)
    beta = transcript.challenge(b"beta")
    gamma = transcript.challenge(b"gamma")
    transcript.absorb_point(proof.commit_z)
    alpha = transcript.challenge(b"alpha")
    for commit in (proof.commit_t_lo, proof.commit_t_mid, proof.commit_t_hi):
        transcript.absorb_point(commit)
    zeta = transcript.challenge(b"zeta")
    ev = proof.evals
    for name in OPENED_AT_ZETA:
        transcript.absorb_scalar(ev[name])
    transcript.absorb_scalar(ev["z_omega"])
    v = transcript.challenge(b"v")

    # -- check the batched openings ----------------------------------------------
    # [t] = [t_lo] + zeta^n [t_mid] + zeta^2n [t_hi]
    zn = pow(zeta, n, fr.modulus)
    commit_t = (proof.commit_t_lo + proof.commit_t_mid * zn
                + proof.commit_t_hi * fr.mul(zn, zn))
    commit_by_name = {
        "a": proof.commit_a, "b": proof.commit_b, "c": proof.commit_c,
        "ql": pre.selector_commits["ql"], "qr": pre.selector_commits["qr"],
        "qo": pre.selector_commits["qo"], "qm": pre.selector_commits["qm"],
        "qc": pre.selector_commits["qc"],
        "s1": pre.sigma_commits[0], "s2": pre.sigma_commits[1],
        "s3": pre.sigma_commits[2],
        "z": proof.commit_z, "t": commit_t,
    }
    commitments = [commit_by_name[name] for name in OPENED_AT_ZETA]
    evals = [ev[name] for name in OPENED_AT_ZETA]
    if not kzg.verify_batch(commitments, zeta, evals, proof.witness_zeta, v):
        return False
    zeta_omega = fr.mul(zeta, pre.domain.omega)
    if not kzg.verify_batch([proof.commit_z], zeta_omega, [ev["z_omega"]],
                            proof.witness_zeta_omega, v):
        return False

    # -- quotient identity at zeta ----------------------------------------------------
    zh = fr.sub(zn, 1)
    if zh == 0:
        return False  # astronomically unlikely; would degenerate L1/PI

    # Public-input polynomial at zeta: PI(zeta) = -sum_i x_i L_i(zeta),
    # with L_i(zeta) = omega^i (zeta^n - 1) / (n (zeta - omega^i)).
    n_inv = pow(n, -1, fr.modulus)
    omegas = pre.domain.elements()
    pi_at_zeta = 0
    for i, x_i in enumerate(public_values):
        li = fr.mul(
            fr.mul(omegas[i], fr.mul(zh, n_inv)),
            fr.inv(fr.sub(zeta, omegas[i])),
        )
        pi_at_zeta = fr.sub(pi_at_zeta, fr.mul(x_i, li))

    l1 = fr.mul(fr.mul(zh, n_inv), fr.inv(fr.sub(zeta, 1)))

    gate = fr.add(
        fr.add(
            fr.add(fr.mul(ev["ql"], ev["a"]), fr.mul(ev["qr"], ev["b"])),
            fr.add(fr.mul(ev["qo"], ev["c"]),
                   fr.mul(ev["qm"], fr.mul(ev["a"], ev["b"]))),
        ),
        fr.add(ev["qc"], pi_at_zeta),
    )
    lhs = fr.mul(
        fr.mul(
            fr.add(fr.add(ev["a"], fr.mul(beta, zeta)), gamma),
            fr.add(fr.add(ev["b"], fr.mul(beta, fr.mul(pre.k1, zeta))), gamma),
        ),
        fr.mul(fr.add(fr.add(ev["c"], fr.mul(beta, fr.mul(pre.k2, zeta))), gamma),
               ev["z"]),
    )
    rhs = fr.mul(
        fr.mul(
            fr.add(fr.add(ev["a"], fr.mul(beta, ev["s1"])), gamma),
            fr.add(fr.add(ev["b"], fr.mul(beta, ev["s2"])), gamma),
        ),
        fr.mul(fr.add(fr.add(ev["c"], fr.mul(beta, ev["s3"])), gamma),
               ev["z_omega"]),
    )
    perm = fr.sub(lhs, rhs)
    boundary = fr.mul(l1, fr.sub(ev["z"], 1))
    total = fr.add(gate, fr.add(fr.mul(alpha, perm),
                                fr.mul(fr.mul(alpha, alpha), boundary)))
    return total == fr.mul(ev["t"], zh)
