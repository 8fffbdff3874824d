"""The pinning rule, site by site (docs/KERNELS.md, "The pinning rule").

Modeled figures are calibrated on the textbook algorithms, so every site
that has a faster twin keeps traced runs on the reference: same value from
the same public call, different route.  One test per site — the value
agrees, and the traced call shows the reference route's fingerprint (a
kernel counter, a region name, an un-normalized ``Z``, a ``None`` pool)
where the untraced one shows the fast route's.
"""

import random

import pytest

from repro import parallel
from repro.curves import BN128, PairingEngine, Point
from repro.groth16 import generate_witness, prove, public_inputs, setup, verify
from repro.msm import FixedBaseTable, msm_auto
from repro.obs.metrics import MetricsRegistry, collecting
from repro.parallel.pool import WorkerPool
from repro.perf.trace import Tracer, tracing
from tests.conftest import make_pow_circuit
from tests.oracle import reference

G1, G2 = BN128.g1, BN128.g2


def traced(fn, *args):
    """``(value, tracer, registry)`` of one call made under a tracer."""
    tracer = Tracer()
    with collecting(MetricsRegistry()) as registry, tracing(tracer):
        return fn(*args), tracer, registry


def region_names(tracer):
    return {rec.name for rec in tracer.iter_regions()}


@pytest.mark.parametrize("group", [G1, G2], ids=["G1", "G2"])
def test_msm_auto(group):
    r = random.Random(17)
    points = [(group.generator * r.randrange(1, 1 << 16)).to_affine()
              for _ in range(24)]
    scalars = [r.randrange(group.order) for _ in points]
    with collecting(MetricsRegistry()) as fast_metrics:
        fast = msm_auto(group, points, scalars)
    ref, tracer, ref_metrics = traced(msm_auto, group, points, scalars)
    assert ref == fast and ref.to_affine() == fast.to_affine()
    assert ref_metrics.counter("repro_msm_pippenger_calls_total") == 1
    assert ref_metrics.counter("repro_msm_wnaf_calls_total") == 0
    assert "msm_window" in region_names(tracer)
    assert fast_metrics.counter("repro_msm_pippenger_calls_total") == 0
    assert fast_metrics.counter("repro_msm_wnaf_calls_total") == 1
    assert fast_metrics.counter("repro_msm_glv_calls_total") == (group is G1)


@pytest.mark.parametrize("group", [G1, G2], ids=["G1", "G2"])
def test_fixed_base_mul_many(group):
    one = group.ops.one
    table = FixedBaseTable(group.generator, width=3)
    scalars = [random.Random(23).randrange(group.order) for _ in range(6)] + [0]
    fast = table.mul_many(scalars)
    ref, tracer, _ = traced(table.mul_many, scalars)
    assert ref == fast
    assert fast[-1].is_infinity() and all(p.Z == one for p in fast[:-1])
    # The walk the setup model is calibrated on: Jacobian sums, left as is.
    assert all(p.Z != one for p in ref[:-1])
    assert "fixed_base_mul_many" in region_names(tracer)


@pytest.mark.parametrize("group", [G1, G2], ids=["G1", "G2"])
def test_to_affine(group):
    point = (group.generator * 5).normalize()
    assert point.Z == group.ops.one
    with collecting(MetricsRegistry()) as fast_metrics:
        fast = point.to_affine()
    ref, tracer, ref_metrics = traced(point.to_affine)
    assert ref == fast == (point.X, point.Y)
    # Modeled stages count one inversion per serialized point, normalized
    # or not; the untraced call returns the coordinates it already holds.
    assert fast_metrics.counter("repro_field_inv_total") == 0
    assert ref_metrics.counter("repro_field_inv_total") == 1
    assert tracer.total_counts()[BN128.fq._inv_tag] == 1


@pytest.mark.parametrize("group", [G1, G2], ids=["G1", "G2"])
def test_point_mul(group, monkeypatch):
    fast_only = []
    original = Point._mul_wnaf

    def spy(self, k):
        fast_only.append(k)
        return original(self, k)

    monkeypatch.setattr(Point, "_mul_wnaf", spy)
    point = group.generator * 3
    k = random.Random(31).randrange(group.order)
    assert fast_only == [3]
    ref, tracer, _ = traced(point.__mul__, k)
    assert fast_only == [3]
    # The loop the modeled stages count: an addition a set bit and a
    # doubling a bit, less the first of each (the accumulator is O).
    counts = tracer.total_counts()
    assert counts[group._add_tag] == bin(k).count("1") - 1
    assert counts[group._dbl_tag] == k.bit_length() - 1
    fast = point * k
    assert fast_only == [3, k]
    assert fast == ref and fast.to_affine() == ref.to_affine()


def test_pairing_engine(monkeypatch):
    eng = PairingEngine(BN128)
    fast_only = []
    for attr in ("_miller_loops", "_hard_part_bn"):
        original = getattr(PairingEngine, attr)

        def spy(*args, _original=original, _attr=attr):
            fast_only.append(_attr)
            return _original(*args)

        monkeypatch.setattr(PairingEngine, attr, spy)
    P, Q = (G1.generator * 3).to_affine(), (G2.generator * 7).to_affine()

    f_ref, tracer, _ = traced(eng.miller_loop, P, Q)
    e_ref = reference(eng.final_exponentiation, f_ref)
    assert fast_only == []
    assert tracer.total_counts()["pairing_miller_loop"] == 1

    f_fast = eng.miller_loop(P, Q)
    assert fast_only == ["_miller_loops"]
    assert f_fast == f_ref
    assert eng.final_exponentiation(f_fast) == e_ref
    assert fast_only == ["_miller_loops", "_hard_part_bn"]


def test_traced_verify_never_meets_the_prepared_key():
    # Four reference loops in their regions; the vk's memo (line tables and
    # the stored Miller value) is neither read nor built under a tracer.
    circuit, inputs = make_pow_circuit(BN128, 4)
    rng = random.Random(29)
    pk, vk = setup(BN128, circuit, rng)
    witness = generate_witness(circuit, inputs)
    proof, publics = prove(pk, circuit, witness, rng), public_inputs(circuit, witness)
    assert "prepared" not in vars(vk)
    ok, tracer, _ = traced(verify, vk, proof, publics)
    assert ok is True
    assert tracer.total_counts()["pairing_miller_loop"] == 4
    assert "verify_miller_loops" in region_names(tracer)
    assert "prepared" not in vars(vk)
    assert verify(vk, proof, publics) is True and "prepared" in vars(vk)


def test_active_pool():
    with WorkerPool(2, backend="serial") as pool, parallel.using(pool):
        assert parallel.active_pool() is pool
        assert reference(parallel.active_pool) is None
    assert parallel.active_pool() is None
