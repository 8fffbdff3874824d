"""The pinning rule, site by site (docs/KERNELS.md, "The pinning rule").

Modeled figures are calibrated on the textbook algorithms, so every site
that has a faster twin keeps traced runs on the reference: same value from
the same public call, different route.  One test per site — the value
agrees, and the traced call shows the reference route's fingerprint (a
kernel counter, a region name, an un-normalized ``Z``, a ``None`` pool)
where the untraced one shows the fast route's.  The pairing is no longer
pinned but charged ("Charging a reference"): its tests hold the traced
call's trace equal to the textbook route's executed.
"""

import random

import pytest

from repro import parallel
from repro.curves import BN128, PairingEngine, Point
from repro.curves import curve as curve_module
from repro.curves.endomorphism import decompose_scalar
from repro.groth16 import generate_witness, prove, public_inputs, setup, verify
from repro.msm import FixedBaseTable, msm_auto
from repro.obs.metrics import MetricsRegistry, collecting
from repro.parallel.pool import WorkerPool
from repro.perf.trace import Tracer, tracing
from repro.plonk.kzg import SRS
from tests.conftest import make_pow_circuit
from tests import oracle
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
    assert ref_metrics.counter("repro_msm_glv_decompositions_total") == 0
    assert "msm_window" in region_names(tracer)
    assert fast_metrics.counter("repro_msm_pippenger_calls_total") == 0
    assert fast_metrics.counter("repro_msm_wnaf_calls_total") == 1
    # Both groups split: phi on G1, phi on the twist for G2.
    assert fast_metrics.counter("repro_msm_glv_calls_total") == 1
    assert fast_metrics.counter("repro_msm_glv_decompositions_total") == len(points)


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
def test_fixed_base_table_is_the_traced_walks(group):
    # Untraced construction does no group or field work; a traced one
    # builds the stored table, one inversion per affine entry (85 x 7).
    base = group.generator * 5
    with collecting(MetricsRegistry()) as registry:
        table = FixedBaseTable(base, width=3)
    assert registry.counter("repro_field_inv_total") == 0
    assert table._table is None
    table, tracer, registry = traced(FixedBaseTable, base, 3)
    assert "fixed_base_table_build" in region_names(tracer)
    assert table._table is not None
    assert registry.counter("repro_field_inv_total") == 595


def test_srs_generate_builds_the_table_traced_only(monkeypatch):
    tables = []
    original = FixedBaseTable.__init__

    def spy(self, *args, **kwargs):
        original(self, *args, **kwargs)
        tables.append(self)

    monkeypatch.setattr(FixedBaseTable, "__init__", spy)
    fast = SRS.generate(BN128, 4, random.Random(37))
    assert len(tables) == 1 and tables[0]._table is None
    ref, tracer, _ = traced(SRS.generate, BN128, 4, random.Random(37))
    assert len(tables) == 2 and tables[1]._table is not None
    assert "fixed_base_table_build" in region_names(tracer)
    assert ref.g1_powers == fast.g1_powers


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
    fast_only, splits = [], []
    original = Point._mul_wnaf

    def spy(self, k):
        fast_only.append(k)
        return original(self, k)

    def split_spy(basis, r, k):
        splits.append(k)
        return decompose_scalar(basis, r, k)

    monkeypatch.setattr(Point, "_mul_wnaf", spy)
    monkeypatch.setattr(curve_module, "decompose_scalar", split_spy)
    point = group.generator * 3
    k = random.Random(31).randrange(group.order)
    assert fast_only == [3] and splits == [3]
    ref, tracer, _ = traced(point.__mul__, k)
    # The traced ladder neither takes the wNAF route nor splits the scalar.
    assert fast_only == [3] and splits == [3]
    # The loop the modeled stages count: an addition a set bit and a
    # doubling a bit, less the first of each (the accumulator is O).
    counts = tracer.total_counts()
    assert counts[group._add_tag] == bin(k).count("1") - 1
    assert counts[group._dbl_tag] == k.bit_length() - 1
    fast = point * k
    assert fast_only == [3, k] and splits == [3, k]
    assert fast == ref and fast.to_affine() == ref.to_affine()


def test_pairing_engine():
    # Charged, no longer pinned (docs/KERNELS.md, "Charging a reference"):
    # the traced call computes by the one route, and its trace is the
    # textbook route's executed.
    eng = PairingEngine(BN128)
    P, Q = (G1.generator * 3).to_affine(), (G2.generator * 7).to_affine()
    charged = oracle.trace(eng.miller_loop, P, Q)
    assert charged == oracle.trace(oracle.miller_loop, eng, P, Q)
    assert charged[0] == eng.miller_loop(P, Q)
    f = charged[0]
    assert oracle.trace(eng.final_exponentiation, f) == \
        oracle.trace(oracle.final_exponentiation, eng, f)


def test_traced_setup_and_prove_reach_no_wave():
    # Every batch-affine site (bucket rounds, cross-window fold, fixed-base
    # walk) sits behind a pinned route, so a traced run counts no wave; the
    # untraced twin runs them.
    circuit, inputs = make_pow_circuit(BN128, 4)
    witness = generate_witness(circuit, inputs)

    def setup_and_prove():
        pk, _vk = setup(BN128, circuit, random.Random(41))
        return prove(pk, circuit, witness, random.Random(43))

    ref, _tracer, ref_metrics = traced(setup_and_prove)
    with collecting(MetricsRegistry()) as fast_metrics:
        fast = setup_and_prove()
    assert ref_metrics.counter("repro_msm_batch_affine_inversions_total") == 0
    assert fast_metrics.counter("repro_msm_batch_affine_inversions_total") > 0
    assert ref == fast


def test_traced_verify_trace_is_the_oracles():
    # Four reference loops charged in their region, whatever the value is
    # computed from: the vk's memo (line tables and the stored Miller value)
    # is built by the first check, traced or not, and charged to none.
    circuit, inputs = make_pow_circuit(BN128, 4)
    rng = random.Random(29)
    pk, vk = setup(BN128, circuit, rng)
    witness = generate_witness(circuit, inputs)
    proof, publics = prove(pk, circuit, witness, rng), public_inputs(circuit, witness)
    assert "prepared" not in vars(vk)
    charged = oracle.trace(verify, vk, proof, publics)
    assert charged[0] is True and "prepared" in vars(vk)
    assert charged[1].counts == {} and charged[1].children[2].name == "verify_miller_loops"
    with oracle.executed_pairing():
        assert oracle.trace(verify, vk, proof, publics) == charged


def test_active_pool():
    with WorkerPool(2) as pool, parallel.using(pool):
        assert parallel.active_pool() is pool
        assert reference(parallel.active_pool) is None
    assert parallel.active_pool() is None
