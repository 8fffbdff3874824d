"""The PLONK prover.

Round structure (Fiat-Shamir via :class:`~repro.plonk.transcript.Transcript`):

1. commit blinded wire polynomials ``a, b, c``;
2. derive ``beta, gamma``; commit the blinded permutation grand product ``z``;
3. derive ``alpha``; build the quotient ``t`` on the preprocessed coset
   (the smallest power of two above its degree, 4n once n >= 8), split it
   into blinded ``t_lo, t_mid, t_hi`` of degree about n and commit the three;
4. derive ``zeta``; evaluate everything at ``zeta`` (``t`` through
   ``t_lo + zeta^n t_mid + zeta^2n t_hi``, and ``z`` at ``zeta * omega``);
5. derive ``v``; produce the two batched KZG opening witnesses.

See the package docstring for the one documented simplification (direct
selector openings).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.context import region
from repro.plonk.setup import to_coset
from repro.plonk.transcript import Transcript
from repro.poly.ntt import coset_intt, intt

__all__ = ["PlonkProof", "plonk_prove"]

#: Opening order at zeta — fixed protocol constant shared with the verifier.
OPENED_AT_ZETA = ("a", "b", "c", "ql", "qr", "qo", "qm", "qc",
                  "s1", "s2", "s3", "z", "t")


@dataclass
class PlonkProof:
    """Commitments, evaluations and opening witnesses."""

    commit_a: object
    commit_b: object
    commit_c: object
    commit_z: object
    commit_t_lo: object
    commit_t_mid: object
    commit_t_hi: object
    evals: dict          # name -> int, the OPENED_AT_ZETA values + "z_omega"
    witness_zeta: object
    witness_zeta_omega: object

    def size_bytes(self):
        g1 = 64 if self.commit_a.group.name.startswith("bn128") else 96
        return 9 * g1 + 32 * len(self.evals)


def _blind(fr, coeffs, domain_size, blinders):
    """Add ``(sum_i blinders[i] x^i) * Z_H(x)`` to *coeffs* (ZK blinding)."""
    out = list(coeffs) + [0] * (len(blinders))
    for i, bl in enumerate(blinders):
        # * (x^n - 1): +bl at degree n+i, -bl at degree i.
        out[i] = fr.sub(out[i], bl)
        idx = domain_size + i
        while len(out) <= idx:
            out.append(0)
        out[idx] = fr.add(out[idx], bl)
    return out


def plonk_prove(pre, witness, rng):
    """Produce a :class:`PlonkProof` for *witness*.

    Parameters
    ----------
    pre:
        :class:`~repro.plonk.setup.PlonkPreprocessed`.
    witness:
        The circuit's witness vector, as
        :func:`~repro.groth16.witness.generate_witness` returns it.
    rng:
        Source of the blinding scalars.
    """
    curve = pre.curve
    fr = curve.fr
    n = pre.n
    domain = pre.domain
    kzg = pre.kzg
    compiled = pre.compiled

    values = compiled.assignment(witness)
    bad = compiled.check(values)
    if bad is not None:
        raise ValueError(f"assignment violates gate row {bad}")
    wa, wb, wc = compiled.wire_values(values)

    transcript = Transcript(curve)
    transcript.absorb_scalar(n)
    for v in compiled.public_vars:
        transcript.absorb_scalar(values[v])

    # -- round 1: wire polynomials -------------------------------------------
    polys = {}
    commits = {}
    with region("plonk_wires", parallel=True, items=3 * n):
        for name, evals in (("a", wa), ("b", wb), ("c", wc)):
            coeffs = intt(fr, list(evals), domain)
            coeffs = _blind(fr, coeffs, n, [fr.rand(rng), fr.rand(rng)])
            polys[name] = coeffs
            commits[name] = kzg.commit(coeffs)
            transcript.absorb_point(commits[name])

    beta = transcript.challenge(b"beta")
    gamma = transcript.challenge(b"gamma")

    # -- round 2: permutation grand product --------------------------------------
    ks = (1, pre.k1, pre.k2)
    omegas = domain.elements()

    with region("plonk_grand_product", parallel=False):
        z_evals = [1]
        acc = 1
        for i in range(n - 1):
            num = den = 1
            for col, wvals in enumerate((wa, wb, wc)):
                x_label = fr.mul(ks[col], omegas[i])
                num = fr.mul(num, fr.add(fr.add(wvals[i], fr.mul(beta, x_label)), gamma))
                den = fr.mul(den, fr.add(fr.add(wvals[i],
                                                fr.mul(beta, pre.sigma_evals[col][i])),
                                         gamma))
            acc = fr.mul(acc, fr.mul(num, fr.inv(den)))
            z_evals.append(acc)
        z_coeffs = intt(fr, z_evals, domain)
        z_coeffs = _blind(fr, z_coeffs, n, [fr.rand(rng), fr.rand(rng), fr.rand(rng)])
        commit_z = kzg.commit(z_coeffs)
    transcript.absorb_point(commit_z)
    alpha = transcript.challenge(b"alpha")

    # -- round 3: quotient on the preprocessed coset, split in three ---------
    big = pre.coset
    m = big.size
    csel, csig = pre.selector_cosets, pre.sigma_cosets

    with region("plonk_quotient", parallel=True, items=m):
        ca, cb, cc, cz = (to_coset(fr, p, big)
                          for p in (polys["a"], polys["b"], polys["c"], z_coeffs))

        # Public-input polynomial: PI(x) = -sum_i x_i L_i(x).
        pi_evals = [0] * n
        for i, var in enumerate(compiled.public_vars):
            pi_evals[i] = fr.neg(values[var])
        cpi = to_coset(fr, intt(fr, pi_evals, domain), big)

        # x values on the coset, Z_H and L1 pointwise.
        xs = _coset_points(fr, big)

        numer = [0] * m
        inv_zh = fr.batch_inv([fr.sub(pow(x, n, fr.modulus), 1) for x in xs])
        n_inv = pow(n, -1, fr.modulus)
        for i in range(m):
            x = xs[i]
            a_v, b_v, c_v, z_v = ca[i], cb[i], cc[i], cz[i]
            z_w = cz[(i + m // n) % m]  # z(omega * x): omega == w_m^(m/n)
            gate = fr.add(
                fr.add(
                    fr.add(fr.mul(csel["ql"][i], a_v), fr.mul(csel["qr"][i], b_v)),
                    fr.add(fr.mul(csel["qo"][i], c_v),
                           fr.mul(csel["qm"][i], fr.mul(a_v, b_v))),
                ),
                fr.add(csel["qc"][i], cpi[i]),
            )
            lhs = fr.mul(
                fr.mul(
                    fr.add(fr.add(a_v, fr.mul(beta, x)), gamma),
                    fr.add(fr.add(b_v, fr.mul(beta, fr.mul(pre.k1, x))), gamma),
                ),
                fr.mul(fr.add(fr.add(c_v, fr.mul(beta, fr.mul(pre.k2, x))), gamma), z_v),
            )
            rhs = fr.mul(
                fr.mul(
                    fr.add(fr.add(a_v, fr.mul(beta, csig[0][i])), gamma),
                    fr.add(fr.add(b_v, fr.mul(beta, csig[1][i])), gamma),
                ),
                fr.mul(fr.add(fr.add(c_v, fr.mul(beta, csig[2][i])), gamma), z_w),
            )
            perm = fr.sub(lhs, rhs)
            # L1(x) = (x^n - 1) / (n (x - 1)); x != 1 on the coset.
            l1 = fr.mul(
                fr.mul(fr.sub(pow(x, n, fr.modulus), 1), n_inv),
                fr.inv(fr.sub(x, 1)),
            )
            boundary = fr.mul(l1, fr.sub(z_v, 1))
            total = fr.add(gate, fr.add(fr.mul(alpha, perm),
                                        fr.mul(fr.mul(alpha, alpha), boundary)))
            numer[i] = fr.mul(total, inv_zh[i])
        t_coeffs = coset_intt(fr, numer, big)
        # Degree sanity: t has degree <= 3n + 5.
        for c in t_coeffs[3 * n + 6:]:
            if c != 0:
                raise ArithmeticError(
                    "quotient degree overflow — the assignment does not "
                    "satisfy the circuit"
                )
        # t = t_lo + X^n t_mid + X^2n t_hi; b10, b11 blind the pieces and
        # cancel in the sum.
        b10, b11 = fr.rand(rng), fr.rand(rng)
        t_pieces = (
            t_coeffs[:n] + [b10],
            [fr.sub(t_coeffs[n], b10)] + t_coeffs[n + 1:2 * n] + [b11],
            [fr.sub(t_coeffs[2 * n], b11)] + t_coeffs[2 * n + 1:3 * n + 6],
        )
    commit_t = [kzg.commit(p) for p in t_pieces]
    for commit in commit_t:
        transcript.absorb_point(commit)
    zeta = transcript.challenge(b"zeta")

    # t_lo + zeta^n t_mid + zeta^2n t_hi opens to t(zeta).
    zn = pow(zeta, n, fr.modulus)
    t_open = [0] * len(t_pieces[2])
    for scale, piece in zip((1, zn, fr.mul(zn, zn)), t_pieces):
        for i, c in enumerate(piece):
            t_open[i] = fr.add(t_open[i], fr.mul(scale, c))

    # -- rounds 4-5: evaluations + batched openings ----------------------------------
    poly_by_name = {
        "a": polys["a"], "b": polys["b"], "c": polys["c"],
        "ql": pre.selector_polys["ql"], "qr": pre.selector_polys["qr"],
        "qo": pre.selector_polys["qo"], "qm": pre.selector_polys["qm"],
        "qc": pre.selector_polys["qc"],
        "s1": pre.sigma_polys[0], "s2": pre.sigma_polys[1],
        "s3": pre.sigma_polys[2],
        "z": z_coeffs, "t": t_open,
    }
    zeta_omega = fr.mul(zeta, domain.omega)
    evals = {name: kzg.evaluate(poly_by_name[name], zeta) for name in OPENED_AT_ZETA}
    evals["z_omega"] = kzg.evaluate(z_coeffs, zeta_omega)
    for name in OPENED_AT_ZETA:
        transcript.absorb_scalar(evals[name])
    transcript.absorb_scalar(evals["z_omega"])
    v = transcript.challenge(b"v")

    with region("plonk_openings", parallel=True, items=2):
        _, w_zeta = kzg.open_batch([poly_by_name[n_] for n_ in OPENED_AT_ZETA], zeta, v)
        _, w_zeta_omega = kzg.open_batch([z_coeffs], zeta_omega, v)

    return PlonkProof(
        commit_a=commits["a"],
        commit_b=commits["b"],
        commit_c=commits["c"],
        commit_z=commit_z,
        commit_t_lo=commit_t[0],
        commit_t_mid=commit_t[1],
        commit_t_hi=commit_t[2],
        evals=evals,
        witness_zeta=w_zeta,
        witness_zeta_omega=w_zeta_omega,
    )


def _coset_points(fr, big_domain):
    """All points of the coset ``g * <omega>`` in order."""
    out = [0] * big_domain.size
    acc = big_domain.coset_gen
    for i in range(big_domain.size):
        out[i] = acc
        acc = fr.mul(acc, big_domain.omega)
    return out
