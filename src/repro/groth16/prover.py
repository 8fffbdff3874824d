"""The *proving* stage: generate a Groth16 proof.

The pipeline — stream the proving key, build the quotient ``h`` with the
NTT round trip, then five multi-scalar multiplications — is the workload
whose fingerprint dominates the paper's findings:

- highest peak memory bandwidth of any stage (25 GB/s, Table III): the
  zkey stream plus the NTT passes;
- ~100x the witness stage's loads (Fig. 5);
- the most *parallel* heavy stage (~72% parallel, Table VI): NTT passes
  and MSM windows fan out; only key parsing and proof assembly are serial;
- >30% data-movement instructions (Key Takeaway 4).
"""

from __future__ import annotations

from repro.context import RUN, region
from repro.groth16.keys import Proof
from repro.poly.domain import EvaluationDomain
from repro.qap.qap import compute_h
from repro.resilience.degrade import resilient_msm

__all__ = ["prove"]


def prove(pk, circuit, witness, rng):
    """Produce a proof that *witness* satisfies *circuit*.

    Parameters
    ----------
    pk:
        The :class:`~repro.groth16.keys.ProvingKey` from setup.
    circuit:
        The matching :class:`~repro.circuit.compiler.CompiledCircuit`.
    witness:
        Full witness vector from
        :func:`~repro.groth16.witness.generate_witness`.
    rng:
        Source of the zero-knowledge blinding scalars ``r, s``.

    Raises
    ------
    ValueError
        If the witness does not satisfy the constraint system.
    """
    curve = pk.curve
    fr = curve.fr
    r1cs = circuit.r1cs
    t = RUN.tracer
    m = RUN.metrics
    if m is not None:
        m.inc("repro_groth16_prove_total")
        m.observe("repro_groth16_prove_constraints", r1cs.n_constraints)

    domain = EvaluationDomain(fr, pk.domain_size)

    if t is not None:
        # Stream the zkey: every query section is read once up front
        # (snarkjs mmaps the sections; the read is a near-memcpy-speed
        # sequential sweep — the stage's 25 GB/s peak in Table III).
        with t.region("prove_load_zkey", parallel=False):
            size = pk.size_bytes()
            buf = t.malloc(size)
            t.stream(buf, size, ticks_per_kb=9)
            t.page_fault(1 + size // 4096)
            # Representation conversion passes (Montgomery <-> affine) over
            # the loaded sections: cache-resident copies, reported op-only.
            t.op("memcpy", 1 + size // 8192)
            t.op("memcpy_chunk", (4 * size) // 16)

    # -- quotient polynomial (NTT pipeline; regions reported inside) --------
    h = compute_h(r1cs, witness, domain)

    r = fr.rand(rng)
    s = fr.rand(rng)

    # -- multi-scalar multiplications ------------------------------------------
    a_aff = [p.to_affine() for p in pk.a_query]
    b1_aff = [p.to_affine() for p in pk.b1_query]
    b2_aff = [p.to_affine() for p in pk.b2_query]
    l_wires = sorted(pk.l_query)
    l_aff = [pk.l_query[i].to_affine() for i in l_wires]
    l_scalars = [witness[i] for i in l_wires]
    h_aff = [p.to_affine() for p in pk.h_query]

    # resilient_msm: the msm_auto front door, degrading to the naive
    # kernel on a transient kernel fault (docs/ROBUSTNESS.md).
    with region("prove_msm", parallel=True, items=4 * len(a_aff) + len(h_aff)):
        a_sum = resilient_msm(curve.g1, a_aff, witness)
        b1_sum = resilient_msm(curve.g1, b1_aff, witness)
        b2_sum = resilient_msm(curve.g2, b2_aff, witness)
        l_sum = resilient_msm(curve.g1, l_aff, l_scalars)
        h_sum = resilient_msm(curve.g1, h_aff, h)

    # -- proof assembly (serial tail) -----------------------------------------------
    with region("prove_assemble", parallel=False):
        A = pk.alpha1 + a_sum + pk.delta1 * r
        B2 = pk.beta2 + b2_sum + pk.delta2 * s
        B1 = pk.beta1 + b1_sum + pk.delta1 * s
        C = (
            l_sum
            + h_sum
            + A * s
            + B1 * r
            - pk.delta1 * (fr.mul(r, s))
        )
        proof = Proof(curve=curve, a=A.normalize(), b=B2.normalize(), c=C.normalize())
        if t is not None:
            t.memcpy(t.malloc(proof.size_bytes()), 0, proof.size_bytes())
    return proof
