"""The *setup* stage: trusted-setup key generation.

Samples the toxic waste ``(tau, alpha, beta, gamma, delta)``, evaluates the
QAP columns at ``tau``, and commits everything into the proving/verifying
keys with fixed-base scalar multiplications.

Instrumented to match the stage's fingerprint in the paper:

- it is by far the most *expensive* stage (76.1% of total time) — the key
  material is linear in circuit size, with a G1+G2 multiplication per wire
  and per domain power;
- it is **load-dominated** (~10x more loads than stores, Fig. 5): the
  fixed-base tables and the accumulated key sections are re-read many times
  (window walks, consistency hash passes) but written once;
- its LLC MPKI is the *lowest* of all stages (Table II): the access pattern
  is streaming or small-table resident;
- its parallel fraction is modest (~31-59%, Table VI): the powers-of-tau
  chain, the ceremony transcript hashing and the zkey serialization are
  serial.
"""

from __future__ import annotations

from repro.context import RUN
from repro.groth16.keys import ProvingKey, VerifyingKey
from repro.msm.fixed_base import FixedBaseTable
from repro.qap.qap import column_evaluations_at, qap_domain

__all__ = ["setup"]


def setup(curve, circuit, rng):
    """Run the trusted setup for *circuit* on *curve*.

    Parameters
    ----------
    curve:
        A :class:`~repro.curves.curve.CurveSpec`.
    circuit:
        The :class:`~repro.circuit.compiler.CompiledCircuit` to set up.
    rng:
        A ``random.Random``; its five draws are the toxic waste.  Use a
        fresh, discarded generator in production settings.

    Returns
    -------
    (ProvingKey, VerifyingKey)
    """
    fr = curve.fr
    r1cs = circuit.r1cs
    domain = qap_domain(r1cs)
    t = RUN.tracer

    # -- toxic waste --------------------------------------------------------
    tau = fr.rand_nonzero(rng)
    alpha = fr.rand_nonzero(rng)
    beta = fr.rand_nonzero(rng)
    gamma = fr.rand_nonzero(rng)
    delta = fr.rand_nonzero(rng)

    # -- QAP columns at tau ---------------------------------------------------
    u, v, w = column_evaluations_at(r1cs, domain, tau)

    # -- scalar preparation (serial: snarkjs walks these chains in order) ----
    def _prepare_scalars():
        gamma_inv = fr.inv(gamma)
        delta_inv = fr.inv(delta)
        ic_scalars = [
            fr.mul(fr.add(fr.add(fr.mul(beta, u[i]), fr.mul(alpha, v[i])), w[i]), gamma_inv)
            for i in r1cs.public_wires
        ]
        priv = r1cs.private_wires()
        l_scalars = {
            i: fr.mul(fr.add(fr.add(fr.mul(beta, u[i]), fr.mul(alpha, v[i])), w[i]), delta_inv)
            for i in priv
        }
        # Powers-of-tau chain: inherently sequential.
        z_tau = domain.vanishing_at(tau)
        zd = fr.mul(z_tau, delta_inv)
        h_scalars = []
        power = 1
        for _ in range(domain.size - 1):
            h_scalars.append(fr.mul(power, zd))
            power = fr.mul(power, tau)
        return ic_scalars, l_scalars, h_scalars

    if t is None:
        ic_scalars, l_scalars, h_scalars = _prepare_scalars()
    else:
        with t.region("setup_prepare_scalars", parallel=False):
            ic_scalars, l_scalars, h_scalars = _prepare_scalars()

    # -- group commitments -------------------------------------------------------
    # Width 3 is what the traced setup's figures are calibrated on.
    g1_table = FixedBaseTable(curve.g1.generator, width=3)
    g2_table = FixedBaseTable(curve.g2.generator, width=3)

    def _mul_many(table, scalars):
        """Table sweep, fanned out through the worker pool when one is
        installed (untraced runs only); the committed points serialize
        identically either way."""
        scalars = list(scalars)
        if t is None:
            from repro.parallel.pool import active_pool

            pool = active_pool()
            if pool is not None and pool.enabled_for(len(scalars), "msm"):
                from repro.parallel.kernels import fixed_base_mul_many

                return fixed_base_mul_many(table, scalars, pool)
        return table.mul_many(scalars)

    def _mul_each(table, scalars):
        """``_mul_many`` untraced.  Under a tracer, one ``mul`` a scalar
        inside the caller's region: ``mul_many`` opens its own parallel
        region, which would model the serial G2 section as parallel and
        leave the L section's traffic outside the caller's scales."""
        if t is None:
            return _mul_many(table, scalars)
        return [table.mul(k) for k in scalars]

    def _commit_g1():
        l_wires = list(l_scalars)
        l_points = _mul_each(g1_table, [l_scalars[i] for i in l_wires])
        return dict(
            alpha1=g1_table.mul(alpha),
            beta1=g1_table.mul(beta),
            delta1=g1_table.mul(delta),
            a_query=_mul_many(g1_table, u),
            b1_query=_mul_many(g1_table, v),
            l_query=dict(zip(l_wires, l_points)),
            h_query=_mul_many(g1_table, h_scalars),
            ic=_mul_many(g1_table, ic_scalars),
        )

    def _commit_g2():
        return dict(
            beta2=g2_table.mul(beta),
            delta2=g2_table.mul(delta),
            gamma2=g2_table.mul(gamma),
            b2_query=_mul_each(g2_table, v),
        )

    if t is None:
        g1_parts = _commit_g1()
        g2_parts = _commit_g2()
    else:
        with t.region("setup_g1_commitments", parallel=True,
                      items=4 * len(u) + len(h_scalars),
                      load_scale=2.0, store_scale=0.25):
            g1_parts = _commit_g1()
        # snarkjs builds the G2 section on the main thread (its wasmcurves
        # worker pool only covers the G1 batch paths) — the stage's big
        # serial block, and the main reason its Amdahl parallel fraction
        # sits near 50% rather than proving's ~72% (Table VI).
        with t.region("setup_g2_commitments", parallel=False,
                      load_scale=2.0, store_scale=0.25):
            g2_parts = _commit_g2()

    pk = ProvingKey(
        curve=curve,
        alpha1=g1_parts["alpha1"],
        beta1=g1_parts["beta1"],
        beta2=g2_parts["beta2"],
        delta1=g1_parts["delta1"],
        delta2=g2_parts["delta2"],
        a_query=g1_parts["a_query"],
        b1_query=g1_parts["b1_query"],
        b2_query=g2_parts["b2_query"],
        l_query=g1_parts["l_query"],
        h_query=g1_parts["h_query"],
        domain_size=domain.size,
    )
    vk = VerifyingKey(
        curve=curve,
        alpha1=pk.alpha1,
        beta2=pk.beta2,
        gamma2=g2_parts["gamma2"],
        delta2=pk.delta2,
        ic=g1_parts["ic"],
        public_wires=list(r1cs.public_wires),
    )

    if t is not None:
        # -- zkey serialization (serial): write the sections, then re-read
        # them for the transcript hashes snarkjs computes.  Fast streams:
        # this is where the stage's 23 GB/s peak (Table III) comes from. ----
        with t.region("setup_write_zkey", parallel=False):
            size = pk.size_bytes() + vk.size_bytes()
            buf = t.malloc(size)
            t.stream(buf, size, write=True, ticks_per_kb=12)   # section write
            t.stream(buf, size, ticks_per_kb=11)               # hash pass
            t.stream(buf, size, ticks_per_kb=11)               # verify read-back
            t.op("hash_block", 1 + size // 64)
            t.page_fault(1 + size // 4096)

    return pk, vk
