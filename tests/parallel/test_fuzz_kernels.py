"""Property/edge-case fuzz for the MSM and NTT kernels, serial + parallel.

Hypothesis drives random (points, scalars) vectors — including identity
points, zero scalars, scalars >= the group order, and window counts that
do not divide evenly into worker slices — and asserts the serial Pippenger, the
naive reference, and the parallel kernel all agree.  The fixed edge-case
tests pin the boundaries the fuzz might under-sample: empty inputs,
single elements, all-zero vectors, and window validation (the
``window <= 0`` crash was found by this suite and fixed in the serial
kernel too).
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.curves import BN128
from repro.fields import BN254_FR
from repro.msm import msm_naive
from repro.parallel.kernels import msm_parallel, ntt_transform_parallel
from repro.parallel.pool import WorkerPool, using
from repro.poly.domain import EvaluationDomain
from repro.poly.ntt import _transform, transform_raw
from tests.oracle import msm_pippenger

G1 = BN128.g1
FR = BN254_FR

#: Small pool of affine points to index into (index 0 is the identity);
#: precomputed once so every hypothesis example is cheap.
POINTS = [None] + [(G1.generator * k).to_affine() for k in range(1, 25)]


@pytest.fixture(scope="module")
def pool2():
    with WorkerPool(2, min_msm=1, min_ntt=1) as p:
        yield p


@pytest.fixture(scope="module")
def pool3():
    # Three workers: MSM window counts rarely divide by 3 (uneven slices).
    with WorkerPool(3, min_msm=1, min_ntt=1) as p:
        yield p


class TestMSMFuzz:
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_parallel_matches_naive_and_serial(self, pool2, data):
        n = data.draw(st.integers(min_value=0, max_value=23), label="n")
        idx = data.draw(st.lists(st.integers(0, len(POINTS) - 1),
                                 min_size=n, max_size=n), label="points")
        scalars = data.draw(
            st.lists(st.integers(min_value=0, max_value=2 * G1.order),
                     min_size=n, max_size=n), label="scalars")
        points = [POINTS[i] for i in idx]
        expect = msm_naive(G1, points, scalars)
        assert msm_pippenger(G1, points, scalars) == expect
        assert msm_parallel(G1, points, scalars, pool2) == expect

    @given(n=st.integers(min_value=1, max_value=23))
    @settings(max_examples=15, deadline=None)
    def test_uneven_chunk_boundaries(self, pool3, n):
        r = random.Random(n)
        points = [POINTS[r.randrange(1, len(POINTS))] for _ in range(n)]
        scalars = [r.randrange(G1.order) for _ in range(n)]
        assert (msm_parallel(G1, points, scalars, pool3)
                == msm_pippenger(G1, points, scalars))


class TestMSMEdgeCases:
    def test_empty(self, pool2):
        assert msm_pippenger(G1, [], []).is_infinity()
        assert msm_parallel(G1, [], [], pool2).is_infinity()

    def test_single_element(self, pool2):
        pt, k = POINTS[3], 12345
        expect = msm_naive(G1, [pt], [k])
        assert msm_pippenger(G1, [pt], [k]) == expect
        assert msm_parallel(G1, [pt], [k], pool2) == expect

    def test_all_zero_scalars(self, pool2):
        points = POINTS[1:9]
        zeros = [0] * len(points)
        assert msm_pippenger(G1, points, zeros).is_infinity()
        assert msm_parallel(G1, points, zeros, pool2).is_infinity()

    def test_all_identity_points(self, pool2):
        points = [None] * 6
        scalars = list(range(1, 7))
        assert msm_pippenger(G1, points, scalars).is_infinity()
        assert msm_parallel(G1, points, scalars, pool2).is_infinity()

    def test_scalars_at_and_above_order(self, pool2):
        points = POINTS[1:5]
        scalars = [G1.order, G1.order + 1, 2 * G1.order, G1.order - 1]
        expect = msm_naive(G1, points, scalars)
        assert msm_pippenger(G1, points, scalars) == expect
        assert msm_parallel(G1, points, scalars, pool2) == expect

    def test_length_mismatch_raises(self, pool2):
        with pytest.raises(ValueError):
            msm_pippenger(G1, POINTS[1:3], [1])
        with pytest.raises(ValueError):
            msm_parallel(G1, POINTS[1:3], [1], pool2)

    @pytest.mark.parametrize("window", [0, -1, 33])
    def test_bad_window_raises_serial_and_parallel(self, window):
        points, scalars = POINTS[1:5], [1, 2, 3, 4]
        # msm_parallel takes no window: its slices let the kernel choose.
        with pytest.raises(ValueError):
            msm_pippenger(G1, points, scalars, window=window)


class TestNTTFuzz:
    # The kernel's contract: lengths it can split (n >= 4); the front door
    # keeps shorter ones serial (TestNTTEdgeCases).
    @given(log_n=st.integers(min_value=2, max_value=7),
           seed=st.integers(min_value=0, max_value=1 << 16))
    @settings(max_examples=25, deadline=None)
    def test_parallel_matches_serial(self, pool2, log_n, seed):
        n = 1 << log_n
        d = EvaluationDomain(FR, n)
        r = random.Random(seed)
        values = [FR.rand(r) for _ in range(n)]
        serial = transform_raw(list(values), d.omega, FR.modulus)
        assert ntt_transform_parallel(FR, list(values), d.omega,
                                      pool2) == serial

    @given(log_n=st.integers(min_value=2, max_value=6),
           seed=st.integers(min_value=0, max_value=1 << 16))
    @settings(max_examples=10, deadline=None)
    def test_three_workers_fall_back_to_pow2_decimation(self, pool3, log_n,
                                                        seed):
        # Decimation degree must stay a power of two even when the pool
        # is not one; 3 workers decimate by 2.
        n = 1 << log_n
        d = EvaluationDomain(FR, n)
        r = random.Random(seed)
        values = [FR.rand(r) for _ in range(n)]
        assert (ntt_transform_parallel(FR, list(values), d.omega, pool3)
                == transform_raw(list(values), d.omega, FR.modulus))


class TestNTTEdgeCases:
    """Lengths below the kernel's go through the front door
    (``poly.ntt._transform``) with the pool installed."""

    def test_empty(self, pool2):
        assert transform_raw([], 1, FR.modulus) == []
        with using(pool2):
            assert _transform(FR, [], 1, "ntt") == []

    def test_single_element(self, pool2):
        assert transform_raw([7], 1, FR.modulus) == [7]
        with using(pool2):
            assert _transform(FR, [7], 1, "ntt") == [7]

    def test_all_zero(self, pool2):
        d = EvaluationDomain(FR, 16)
        assert (ntt_transform_parallel(FR, [0] * 16, d.omega, pool2)
                == [0] * 16)

    def test_non_power_of_two_raises(self, pool2):
        d = EvaluationDomain(FR, 4)
        with pytest.raises(ValueError):
            transform_raw([1, 2, 3], d.omega, FR.modulus)
        with using(pool2), pytest.raises(ValueError):
            _transform(FR, [1, 2, 3], d.omega, "ntt")

    def test_matches_polynomial_evaluation(self, pool2):
        # Ground truth: NTT(x) evaluates the polynomial at domain powers.
        n = 8
        d = EvaluationDomain(FR, n)
        r = random.Random(0xE7)
        coeffs = [FR.rand(r) for _ in range(n)]
        evals = [
            sum(c * pow(d.omega, i * j, FR.modulus)
                for j, c in enumerate(coeffs)) % FR.modulus
            for i in range(n)
        ]
        assert ntt_transform_parallel(FR, list(coeffs), d.omega,
                                      pool2) == evals
