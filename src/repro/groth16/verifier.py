"""The *verifying* stage: check a Groth16 proof.

One small MSM over the public inputs and a four-term product of pairings:

    ``e(A, B) = e(alpha, beta) * e(vk_x, gamma) * e(C, delta)``

checked as ``e(-A, B) * e(alpha, beta) * e(vk_x, gamma) * e(C, delta) == 1``
with a single shared final exponentiation.  The value takes the three
terms that do not depend on the proof from ``vk.prepared``; a traced run
is charged four reference loops (docs/KERNELS.md, "Charging a reference").

Constant work regardless of circuit size — which is why the paper's Fig. 5
shows flat loads/stores, Fig. 6 a flat speedup, and the execution time is
independent of the constraint count.  ``bigint`` computation dominates CPU
time here (~10%, Table IV) and the stage is compute-intensive (48.2% compute
opcodes, Table V).
"""

from __future__ import annotations

from repro.context import RUN, region, scoped
from repro.curves.pairing import engine_for

__all__ = ["verify"]

#: Modeled bytes of runtime image (node + snarkjs + curve tables) the
#: verifier cold-starts through before the pairing work begins.
_RUNTIME_IMAGE_BYTES = 1 << 20


def verify(vk, proof, publics):
    """Return True iff *proof* is valid for the public inputs *publics*.

    Parameters
    ----------
    vk:
        The :class:`~repro.groth16.keys.VerifyingKey`.
    proof:
        The :class:`~repro.groth16.keys.Proof` to check.
    publics:
        Values of the public wires in ``vk.public_wires[1:]`` order — what
        :func:`~repro.groth16.witness.public_inputs` returns.
    """
    t = RUN.tracer
    m = RUN.metrics
    if m is not None:
        m.inc("repro_groth16_verify_total")
    eng = engine_for(vk.curve)
    if t is not None:
        with t.region("verify_parse_proof", parallel=False):
            # Runtime startup: node + snarkjs module load, vkey/proof JSON
            # parse.  A modest stream, but against the stage's small
            # instruction count it is what produces the 4-5 GB/s peak the
            # paper's Table III shows.
            rt = t.malloc(_RUNTIME_IMAGE_BYTES)
            t.stream(rt, _RUNTIME_IMAGE_BYTES, ticks_per_kb=64, op_name="wasm_validate")
            t.page_fault(1 + _RUNTIME_IMAGE_BYTES // 4096)
            t.memcpy(t.malloc(proof.size_bytes()), 0, proof.size_bytes())
            t.op("json_parse_field", 16)
    with region("verify_prepare_inputs", parallel=True, items=max(len(publics), 1)):
        vk_x = vk.fold_publics(publics)
    # Only what depends on the proof: three legs of one shared loop, two over
    # stored lines, times the stored Miller value of (alpha, beta).
    fixed = vk.prepared
    with scoped("tracer", None):
        ok = eng.pairing_check(
            [(-proof.a, proof.b), (vk_x, fixed.gamma2), (proof.c, fixed.delta2)],
            fixed.alpha_beta)
    if t is not None:
        # The model's four Miller loops are independent (parallelizable); the
        # shared final exponentiation is the serial tail.
        with t.region("verify_miller_loops", parallel=True, items=4):
            eng.charge_miller_loops(t, [
                (P.to_affine(), Q.to_affine()) for P, Q in [
                    (-proof.a, proof.b), (vk.alpha1, vk.beta2),
                    (vk_x, vk.gamma2), (proof.c, vk.delta2)]])
        with t.region("verify_final_exp", parallel=False):
            eng.charge_final_exponentiation(t)
    return ok
