"""MSM kernels: the reference Pippenger vs naive equivalence, the traced
front door, fixed-base tables, windows."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.curves import BLS12_381, BN128
from repro.msm import FixedBaseTable, msm_auto, msm_naive, optimal_window
from repro.perf.trace import Tracer, tracing
from tests.oracle import msm_pippenger


@pytest.fixture(params=["bn128.G1", "bn128.G2", "bls12_381.G1"], scope="module")
def group(request):
    name = request.param
    curve = BN128 if name.startswith("bn") else BLS12_381
    return curve.g1 if name.endswith("G1") else curve.g2


def make_inputs(group, n, seed=0, with_edge_cases=False):
    r = random.Random(seed)
    points = [(group.generator * r.randrange(1, 10_000)).to_affine() for _ in range(n)]
    scalars = [r.randrange(group.order) for _ in range(n)]
    if with_edge_cases and n >= 4:
        points[0] = None            # identity entry
        scalars[1] = 0              # zero scalar
        scalars[2] = group.order    # reduces to zero
        scalars[3] = group.order - 1
    return points, scalars


class TestOptimalWindow:
    def test_small_inputs(self):
        assert optimal_window(1) == 1
        assert optimal_window(3) == 1
        assert optimal_window(4) == 2

    def test_grows_with_n(self):
        assert optimal_window(1 << 10) > optimal_window(1 << 4)

    def test_capped(self):
        assert optimal_window(1 << 40) == 16


class TestPippenger:
    @pytest.mark.parametrize("n", [1, 2, 7, 33])
    def test_matches_naive(self, group, n):
        points, scalars = make_inputs(group, n, seed=n)
        assert msm_pippenger(group, points, scalars) == msm_naive(group, points, scalars)

    def test_edge_cases_skipped(self, group):
        points, scalars = make_inputs(group, 8, seed=42, with_edge_cases=True)
        assert msm_pippenger(group, points, scalars) == msm_naive(group, points, scalars)

    def test_empty(self, group):
        assert msm_pippenger(group, [], []).is_infinity()
        assert msm_naive(group, [], []).is_infinity()

    def test_all_zero_scalars(self, group):
        points, _ = make_inputs(group, 4, seed=3)
        assert msm_pippenger(group, points, [0, 0, 0, 0]).is_infinity()

    def test_length_mismatch_raises(self, group):
        with pytest.raises(ValueError):
            msm_pippenger(group, [group.generator.to_affine()], [1, 2])
        with pytest.raises(ValueError):
            msm_naive(group, [group.generator.to_affine()], [1, 2])

    @pytest.mark.parametrize("window", [1, 2, 5, 9, 13])
    def test_window_sweep_agrees(self, group, window):
        points, scalars = make_inputs(group, 12, seed=window)
        expected = msm_naive(group, points, scalars)
        assert msm_pippenger(group, points, scalars, window=window) == expected

    def test_single_big_scalar(self, group):
        k = group.order - 2
        pt = group.generator.to_affine()
        assert msm_pippenger(group, [pt], [k]) == group.generator * k

    # A traced msm_auto computes by the fast kernel and is charged the
    # bucket method (tests/msm/test_pippenger_charge.py holds the charge
    # equal to this reference executed).
    def test_traced_matches_untraced(self, group):
        points, scalars = make_inputs(group, 9, seed=5)
        plain = msm_pippenger(group, points, scalars)
        with tracing(Tracer()):
            traced = msm_auto(group, points, scalars)
        assert plain == traced

    def test_traced_regions_are_parallel(self, group):
        points, scalars = make_inputs(group, 9, seed=6)
        tr = Tracer()
        with tracing(tr):
            msm_auto(group, points, scalars)
        windows = [r for r in tr.iter_regions() if r.name == "msm_window"]
        assert windows and all(r.parallel for r in windows)

    def test_every_bucket_update_is_traced(self, group):
        # Each bucket update reads and writes its bucket and reads one
        # operand from the heap: two single loads per single store.
        points, scalars = make_inputs(group, 16, seed=7)
        tr = Tracer()
        with tracing(tr):
            msm_auto(group, points, scalars)
        kinds = [e[0] for e in tr.mem_events]
        assert kinds.count("S") > 0
        assert kinds.count("L") == 2 * kinds.count("S")


@given(seed=st.integers(min_value=0, max_value=1 << 20))
@settings(max_examples=10, deadline=None)
def test_pippenger_naive_equivalence_property(seed):
    g = BN128.g1
    points, scalars = make_inputs(g, 6, seed=seed)
    assert msm_pippenger(g, points, scalars) == msm_naive(g, points, scalars)


class TestFixedBase:
    @pytest.mark.parametrize("width", [1, 2, 4, 8])
    def test_matches_scalar_mul(self, group, width):
        table = FixedBaseTable(group.generator, width=width)
        r = random.Random(width)
        for k in [0, 1, 2, group.order - 1, r.randrange(group.order)]:
            assert table.mul(k) == group.generator * k

    def test_mul_many(self, group):
        table = FixedBaseTable(group.generator, width=4)
        ks = [3, 5, 7]
        assert table.mul_many(ks) == [group.generator * k for k in ks]

    def test_non_generator_base(self, group):
        base = group.generator * 97
        table = FixedBaseTable(base, width=4)
        assert table.mul(12345) == base * 12345

    def test_invalid_width(self, group):
        with pytest.raises(ValueError):
            FixedBaseTable(group.generator, width=0)
        with pytest.raises(ValueError):
            FixedBaseTable(group.generator, width=17)

    def test_invalid_bits(self, group):
        # Regression: bits=0 used to fall through ``bits or default`` to
        # the full scalar width, and negative bits built an empty table
        # whose mul() silently returned infinity for every scalar.
        with pytest.raises(ValueError):
            FixedBaseTable(group.generator, width=4, bits=0)
        with pytest.raises(ValueError):
            FixedBaseTable(group.generator, width=4, bits=-8)

    def test_scalar_reduced(self, group):
        table = FixedBaseTable(group.generator, width=4)
        assert table.mul(group.order + 9) == group.generator * 9

    def test_restricted_bits(self, group):
        table = FixedBaseTable(group.generator, width=4, bits=32)
        assert table.n_windows == 8
        assert table.mul(0xDEADBEEF) == group.generator * 0xDEADBEEF

    def test_traced_build_allocates_table(self, group):
        tr = Tracer()
        with tracing(tr):
            table = FixedBaseTable(group.generator, width=2)
            table.mul(123)
        counts = tr.total_counts()
        assert counts["malloc"] >= 1
        assert counts["fixed_base_digit"] == table.n_windows
