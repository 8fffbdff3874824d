"""Worker-side task registry of the parallel backend.

Every function here runs *inside* a forked worker process via the
envelope in :mod:`repro.parallel.pool`.  Payloads and results are plain
picklable data — ints, tuples, lists, dicts — never live
``Point``/``Group``/``CurveSpec`` objects: workers rebuild group handles
from curve names through the registry (:func:`repro.curves.get_curve`),
and points travel as affine raw-coordinate tuples (``None`` for
infinity), exactly the form the serial MSM kernels already consume.

Determinism contract (docs/PARALLELISM.md): each task computes a
well-defined mathematical object — the shifted sum of a slice of an MSM's
windows, a length-m sub-NTT, a chunk of fixed-base multiples — whose
exact value does not depend on which worker computed it, so parents can
reassemble results that are bit-identical to the serial algorithms.
"""

from __future__ import annotations

from repro.context import RUN

__all__ = ["TASKS", "resolve_group"]


def resolve_group(name):
    """Rebuild a group handle from its ``"<curve>.G1"``/``"<curve>.G2"``
    name in this process's curve registry."""
    from repro.curves import get_curve

    curve_name, _, sub = name.partition(".")
    curve = get_curve(curve_name)
    if sub.lower() == "g1":
        return curve.g1
    if sub.lower() == "g2":
        return curve.g2
    raise ValueError(f"unknown group name {name!r}")


def _point_out(point):
    """Affine wire form of a Point (``None`` encodes infinity)."""
    return point.to_affine()


# -- MSM ---------------------------------------------------------------------------


def msm_window_slice(payload):
    """Slice ``part = (j, k)`` of the windows of the full live MSM.

    Runs the serial fast kernel (:func:`~repro.msm.glv.msm_glv`: the same
    GLV split and signed recoding over *all* terms, so ``c`` and the window
    count agree across slices) on windows ``[j*n//k, (j+1)*n//k)`` only,
    and returns ``2^(c*lo)`` times their Horner sum as an affine tuple.
    The signed-digit kernel's ``msm:pippenger`` fault-site check is how a
    shipped chaos fault fires in here.
    """
    from repro.msm.glv import msm_glv

    group = resolve_group(payload["group"])
    return _point_out(msm_glv(group, payload["points"], payload["scalars"],
                              part=payload["part"]))


# -- NTT ---------------------------------------------------------------------------


def ntt_sub(payload):
    """One decimated sub-transform: NTT of ``x[j::k]`` under root ``w^k``.

    Checks the ``ntt:transform`` fault site (shipped chaos faults fire
    here) and the cooperative deadline, then runs the raw serial kernel.
    """
    from repro.poly.ntt import transform_raw

    if RUN.faults is not None:
        RUN.faults.check("ntt:transform")
    if RUN.deadline is not None:
        RUN.deadline.check()
    return transform_raw(payload["values"], payload["root"], payload["modulus"])


# -- fixed-base (setup) ------------------------------------------------------------

def fixed_base_chunk(payload):
    """Fixed-base multiples of the shipped base for a scalar chunk."""
    from repro.msm.fixed_base import FixedBaseTable

    group = resolve_group(payload["group"])
    aff = payload["base"]
    base = group.infinity() if aff is None else group.point_unchecked(*aff)
    table = FixedBaseTable(base, bits=payload["bits"])
    return [_point_out(pt) for pt in table.mul_many(payload["scalars"])]


# -- batch verification ------------------------------------------------------------


def batch_verify_chunk(payload):
    """Batch-verify one chunk of serialized proofs against a shared vk."""
    import random

    from repro.groth16.batch import batch_verify
    from repro.groth16.serialize import proof_from_bytes, vk_from_bytes

    vk = vk_from_bytes(payload["vk"])
    batch = [(proof_from_bytes(blob), publics)
             for blob, publics in payload["proofs"]]
    rng = random.Random(payload["seed"])
    return bool(batch_verify(vk, batch, rng))


# -- pool self-tests ---------------------------------------------------------------


def selftest_square(payload):
    """Trivial task for pool contract tests (also checks a fault site)."""
    if RUN.faults is not None:
        RUN.faults.check("parallel:selftest")
    if RUN.deadline is not None:
        RUN.deadline.check()
    return payload["x"] * payload["x"]


def selftest_context(payload):
    """``id()`` of every attached run-context field where the task runs,
    ``None`` for detached ones (the worker-reset contract,
    tests/test_context.py)."""
    attached = ((name, getattr(RUN, name)) for name in RUN.__slots__)
    return {name: value if value is None else id(value)
            for name, value in attached}


def selftest_fail(payload):
    """Raise the exception class named in the payload (error-contract tests)."""
    from repro.resilience import errors

    name = payload["type"]
    message = payload.get("message", "selftest failure")
    cls = getattr(errors, name, None)
    if cls is None:
        cls = {"ValueError": ValueError, "RuntimeError": RuntimeError,
               "KeyError": KeyError}.get(name, RuntimeError)
    raise cls(message)


#: Name -> callable registry the worker envelope dispatches through.
TASKS = {
    "msm_window_slice": msm_window_slice,
    "ntt_sub": ntt_sub,
    "fixed_base_chunk": fixed_base_chunk,
    "batch_verify_chunk": batch_verify_chunk,
    "selftest_square": selftest_square,
    "selftest_context": selftest_context,
    "selftest_fail": selftest_fail,
}
