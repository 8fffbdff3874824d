"""The pinning rule, site by site (docs/KERNELS.md, "The pinning rule").

Modeled figures are calibrated on the textbook algorithms.  One site keeps
traced runs on the reference: ``active_pool()`` is ``None`` under a tracer,
so traced runs stay serial.  The MSM, the pairing, ``P * k``, ``to_affine``
and the fixed-base walk are no longer pinned but charged ("Charging a
reference"): their tests hold the traced call's trace equal to the textbook
route's executed (``tests/curves/test_*_charge.py``,
``tests/msm/test_*_charge.py``), and the tests here hold what is left of
them to the counter rule — a ``repro_*`` counter counts the route that
executed, the trace the route charged.
"""

import random

import pytest

from repro import parallel
from repro.curves import BN128, PairingEngine
from repro.groth16 import generate_witness, prove, public_inputs, setup, verify
from repro.msm import FixedBaseTable, msm_auto
from repro.obs.metrics import MetricsRegistry, collecting
from repro.parallel.pool import WorkerPool
from repro.perf.trace import Tracer, tracing
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
    # Charged: the traced call runs the fast kernel, which the counters
    # count like the untraced twin's, and its trace is the bucket method's,
    # which no counter sees.
    ref, tracer, ref_metrics = traced(msm_auto, group, points, scalars)
    assert ref == fast and ref.to_affine() == fast.to_affine()
    assert "msm_window" in region_names(tracer)
    for metrics in (ref_metrics, fast_metrics):
        assert metrics.counter("repro_msm_wnaf_calls_total") == 1
        # Both groups split: phi on G1, phi on the twist for G2.
        assert metrics.counter("repro_msm_glv_calls_total") == 1
        assert metrics.counter("repro_msm_glv_decompositions_total") == len(points)
    assert ref_metrics.snapshot()["counters"] == fast_metrics.snapshot()["counters"]


@pytest.mark.parametrize("group", [G1, G2], ids=["G1", "G2"])
def test_fixed_base_table_is_the_traced_walks(group):
    # No construction computes a table.  A traced one is charged the build:
    # one inversion per affine entry (85 x 7) in the trace, none counted.
    base = group.generator * 5
    with collecting(MetricsRegistry()) as registry:
        table = FixedBaseTable(base, width=3)
    assert registry.counter("repro_field_inv_total") == 0
    assert table._table_base is None
    table, tracer, registry = traced(FixedBaseTable, base, 3)
    assert "fixed_base_table_build" in region_names(tracer)
    assert tracer.total_counts()[BN128.fq._inv_tag] == 595
    assert registry.counter("repro_field_inv_total") == 0
    assert not hasattr(table, "_table")


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


def test_traced_runs_count_the_untraced_waves():
    # The MSM and the fixed-base walk are charged, so a traced setup and a
    # traced prove run their waves like the untraced twins.
    circuit, inputs = make_pow_circuit(BN128, 4)
    witness = generate_witness(circuit, inputs)
    waves = "repro_msm_batch_affine_inversions_total"
    (pk, _vk), _tracer, setup_metrics = traced(setup, BN128, circuit, random.Random(41))
    assert setup_metrics.counter(waves) > 0
    ref, _tracer, ref_metrics = traced(prove, pk, circuit, witness, random.Random(43))
    with collecting(MetricsRegistry()) as fast_metrics:
        fast = prove(pk, circuit, witness, random.Random(43))
    assert ref_metrics.counter(waves) == fast_metrics.counter(waves) > 0
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
