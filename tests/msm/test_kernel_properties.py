"""Property suites for the optimized-kernel building blocks (docs/KERNELS.md).

Hypothesis pins the algebraic invariants each optimization rests on:

- signed-window recoding is an exact integer transform with digits in
  ``[-(2^(c-1) - 1), 2^(c-1)]`` (the row recoder of ``tests/oracle.py``),
  and the kernels' streamed columns are its rows transposed;
- GLV decomposition satisfies ``k1 + lam*k2 = k (mod r)`` with half-width
  halves on G1 and G2 alike, and the derived constants are genuine roots of
  ``x^2 + x + 1``;
- the window chooser lands within 10 % of the best swept width by counted
  field multiplications;
- batch-affine bucket accumulation matches naive group addition, including
  the doubling and cancellation corner cases that bypass the inversion
  batch;
- the window slices ``msm_glv(..., part=(j, k))`` the pool's MSM map runs
  add up to the full MSM, and split its window passes without loss.
"""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.curves import BLS12_381, BN128, get_curve
from repro.curves.endomorphism import decompose_scalar
from repro.msm import batch_affine, glv
from repro.msm.batch_affine import batch_affine_accumulate
from repro.msm.glv import msm_glv
from repro.msm.pippenger import msm_pippenger
from repro.msm.recode import digit_columns, signed_windows_len
from repro.msm.wnaf import optimal_signed_window
from repro.obs import metrics
from tests.oracle import cofactor_points, count_ops, signed_windows

R_BN = BN128.g1.order
EDGE_SCALARS = [0, 1, 2, R_BN - 1, R_BN, R_BN + 1, 2 * R_BN - 1]


class TestSignedWindows:
    @settings(max_examples=200, deadline=None)
    @given(k=st.integers(min_value=0, max_value=(1 << 256) - 1),
           c=st.integers(min_value=1, max_value=16))
    def test_round_trip_and_digit_range(self, k, c):
        n_digits = signed_windows_len(max(k.bit_length(), 1), c)
        digits = signed_windows(k, c, n_digits)
        assert len(digits) == n_digits
        half = 1 << (c - 1)
        for d in digits:
            assert -(half - 1) <= d <= half
        assert sum(d << (c * i) for i, d in enumerate(digits)) == k

    @pytest.mark.parametrize("k", EDGE_SCALARS)
    @pytest.mark.parametrize("c", [1, 2, 5, 13, 16])
    def test_edge_scalars(self, k, c):
        n_digits = signed_windows_len(max(k.bit_length(), 1), c)
        digits = signed_windows(k, c, n_digits)
        assert sum(d << (c * i) for i, d in enumerate(digits)) == k

    def test_shared_shape_across_batch(self):
        # The kernel recodes a whole batch with one n_digits; narrower
        # scalars must recode exactly under the widest scalar's shape.
        c = 5
        n_digits = signed_windows_len(254, c)
        for k in (0, 1, 12345, (1 << 254) - 1):
            digits = signed_windows(k, c, n_digits)
            assert sum(d << (c * i) for i, d in enumerate(digits)) == k

    @settings(max_examples=100, deadline=None)
    @given(ks=st.lists(st.integers(min_value=0, max_value=(1 << 256) - 1), max_size=6),
           c=st.integers(min_value=1, max_value=16))
    def test_columns_are_the_rows_transposed(self, ks, c):
        # The kernels stream columns, which stop at the last window any
        # scalar still reaches; the rows run to the common shape's end.
        n_digits = signed_windows_len(max([k.bit_length() for k in ks] + [1]), c)
        rows = [signed_windows(k, c, n_digits) for k in ks]
        columns = list(digit_columns(ks, c))
        assert len(columns) <= n_digits
        padded = columns + [[0] * len(ks)] * (n_digits - len(columns))
        assert [list(row) for row in zip(*padded)] == rows
        assert not columns or any(columns[-1])

    # Carry-only top windows (the last column holds carries alone): a
    # scalar of whole all-ones windows, and order - 1 at c = 2.
    @example(ks=[(1 << 255) - 1], c=5, start=51)
    @example(ks=[(1 << 20) - 1, 1], c=4, start=5)
    @example(ks=[R_BN - 1], c=2, start=127)
    @settings(max_examples=200, deadline=None)
    @given(ks=st.lists(st.integers(min_value=0, max_value=(1 << 256) - 1), max_size=6),
           c=st.integers(min_value=1, max_value=16),
           start=st.integers(min_value=0, max_value=60))
    def test_columns_from_a_start_are_the_tail(self, ks, c, start):
        full = list(digit_columns(ks, c))
        assert list(digit_columns(ks, c, start=start)) == full[start:]

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            signed_windows(-1, 4, 10)
        with pytest.raises(ValueError):
            # 2^20 does not fit in two 4-bit signed windows.
            signed_windows(1 << 20, 4, 2)
        with pytest.raises(ValueError):
            signed_windows_len(256, 0)
        with pytest.raises(ValueError):
            signed_windows_len(0, 4)


class TestOptimalSignedWindow:
    def test_bounds(self):
        for n in (1, 100, 1 << 20):
            for nbits in (1, 129, 254, 381):
                assert 2 <= optimal_signed_window(n, nbits) <= 16

    def test_grows_with_n(self):
        assert (optimal_signed_window(1 << 14, 254)
                >= optimal_signed_window(1 << 4, 254))

    def test_half_width_scalars_get_fewer_windows(self):
        # The GLV payoff: 2n half-width scalars must run *fewer window
        # passes* (and hence fewer Horner doublings) than n full-width
        # ones, under each configuration's own optimal window.
        for n in (1 << 8, 1 << 12, 1 << 16):
            c_half = optimal_signed_window(2 * n, 129)
            c_full = optimal_signed_window(n, 254)
            assert (signed_windows_len(129, c_half)
                    < signed_windows_len(254, c_full))


class TestWindowChoiceByCount:
    """The machine-independent twin of ``test_ablation_window_sweep``
    (``tests/paper/test_ablation_msm.py``): the width the kernel picks for
    256 terms costs within 10 % of the best swept width, counted in field
    multiplications + squarings, on G1's halves and G2's split."""

    @pytest.mark.parametrize("group", [BN128.g1, BN128.g2], ids=["G1", "G2"])
    def test_chosen_width_near_the_best(self, group):
        r = random.Random(group.name)
        points = [(group.generator * r.randrange(1, 1 << 30)).to_affine()
                  for _ in range(256)]
        scalars = [r.randrange(group.order) for _ in points]

        def products(window):
            _, counts = count_ops(group, msm_glv, group, points, scalars, window=window)
            return counts["mul"] + counts["sqr"]

        best = min(products(c) for c in range(4, 12))
        assert products(None) <= 1.1 * best


@pytest.fixture(params=["bn128", "bls12_381"], scope="module")
def g1(request):
    curve = BN128 if request.param == "bn128" else BLS12_381
    return curve.g1


class TestGLVParams:
    # The record lives on the group (repro.curves.endomorphism), derived and
    # checked at construction; lambda is its eigenvalue, beta is phi(1, .).
    def test_lambda_is_cube_root_in_fr(self, g1):
        endo = g1.endomorphism
        assert endo is not None
        r = g1.order
        lam = endo.eigen % r
        assert (lam * lam + lam + 1) % r == 0
        assert pow(lam, 3, r) == 1 and lam != 1

    def test_beta_is_cube_root_in_fq(self, g1):
        q = g1.ops.fq.modulus
        beta, y = g1.endomorphism.map(1, 5)
        assert pow(beta, 3, q) == 1 and beta != 1 and y == 5

    def test_endomorphism_matches_lambda_on_generator(self, g1):
        endo = g1.endomorphism
        phi_g = g1.point(*endo.map(*g1.generator.to_affine()))
        assert phi_g == g1.generator * endo.eigen

    def test_short_vectors_in_lattice(self, g1):
        endo = g1.endomorphism
        r = g1.order
        for a, b in endo.basis:
            assert (a + b * endo.eigen) % r == 0
            # "Short": both coordinates near sqrt(r).
            assert abs(a).bit_length() <= r.bit_length() // 2 + 2
            assert abs(b).bit_length() <= r.bit_length() // 2 + 2

    def test_memoized(self, g1):
        # Nothing to memoize: an attribute set by Group.__init__.
        assert vars(g1)["endomorphism"] is g1.endomorphism
        assert not hasattr(glv, "_PARAMS") and not hasattr(glv, "glv_params")


@pytest.fixture(params=["bn128", "bls12_381"], scope="module")
def twist(request):
    return get_curve(request.param)


class TestG2Split:
    """G2's split record: ``phi`` on the twist (``beta`` in ``Fq`` scaling
    both ``Fq2`` components of ``x``), installed beside ``psi``, which
    stays the membership test."""

    def test_lambda_is_a_cube_root_and_the_map_is_lambda_on_generator(self, twist):
        g2 = twist.g2
        split, r = g2.split, g2.order
        assert split is not g2.endomorphism and split.basis is not None
        assert (split.eigen ** 2 + split.eigen + 1) % r == 0
        assert split.eigen == twist.g1.split.eigen
        image = g2.point(*split.map(*g2.generator.to_affine()))
        assert image == g2.generator * split.eigen

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_recomposition_and_half_width(self, twist, data):
        split, r = twist.g2.split, twist.g2.order
        k = data.draw(st.integers(min_value=0, max_value=r - 1))
        k1, k2 = decompose_scalar(split.basis, r, k)
        assert (k1 + k2 * split.eigen) % r == k
        bound = r.bit_length() // 2 + 2
        assert abs(k1).bit_length() <= bound and abs(k2).bit_length() <= bound

    def test_edge_scalars(self, twist):
        split, r = twist.g2.split, twist.g2.order
        bound = r.bit_length() // 2 + 2
        for k in (0, 1, 2, r - 1, (r - 1) // 2, r // 2 + 1):
            k1, k2 = decompose_scalar(split.basis, r, k)
            assert (k1 + k2 * split.eigen) % r == k
            assert abs(k1).bit_length() <= bound and abs(k2).bit_length() <= bound

    def test_membership_still_walks_psi(self, twist):
        g2 = twist.g2
        psi, naf = g2.endomorphism, g2._member_naf
        assert psi.char == (-(twist.fq.modulus + 1 - twist.g1.cofactor * g2.order),
                            twist.fq.modulus)
        assert sum(d << i for i, d in enumerate(reversed(naf))) == abs(psi.eigen)
        # The shorter ladder of the two records.
        assert abs(psi.eigen) < abs(g2.split.eigen)
        assert g2.in_subgroup(g2.generator * 5)
        (rogue,) = cofactor_points(twist, 1)
        assert not g2.in_subgroup(g2.point(*rogue))


class TestDecomposeScalar:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_recomposition_and_half_width(self, g1, data):
        endo = g1.endomorphism
        r = g1.order
        k = data.draw(st.integers(min_value=0, max_value=r - 1))
        k1, k2 = decompose_scalar(endo.basis, r, k)
        assert (k1 + k2 * endo.eigen) % r == k % r
        bound = r.bit_length() // 2 + 2
        assert abs(k1).bit_length() <= bound
        assert abs(k2).bit_length() <= bound

    def test_edge_scalars(self, g1):
        endo = g1.endomorphism
        r = g1.order
        for k in (0, 1, 2, r - 1, (r - 1) // 2, r // 2 + 1):
            k1, k2 = decompose_scalar(endo.basis, r, k)
            assert (k1 + k2 * endo.eigen) % r == k % r


class TestBatchAffineAccumulate:
    def _naive_bucket_sums(self, group, n_buckets, entries):
        sums = [group.infinity() for _ in range(n_buckets)]
        for bucket, (x, y) in entries:
            sums[bucket - 1] = sums[bucket - 1].add_affine(x, y)
        return sums

    def _check(self, group, n_buckets, entries):
        got = batch_affine_accumulate(group, n_buckets, entries)
        want = self._naive_bucket_sums(group, n_buckets, entries)
        for slot, ref in zip(got, want):
            if slot is None:
                assert ref.is_infinity()
            else:
                assert ref.to_affine() == slot

    @pytest.mark.parametrize("group_name", ["g1", "g2"])
    @pytest.mark.parametrize("n", [1, 2, 7, 40])
    def test_matches_naive(self, group_name, n):
        group = getattr(BN128, group_name)
        r = random.Random(n)
        entries = [
            (r.randrange(1, 9), (group.generator * r.randrange(1, 1000)).to_affine())
            for _ in range(n)
        ]
        self._check(group, 8, entries)

    def test_long_rounds_split_into_bounded_waves(self, monkeypatch):
        # 3 * cap points over 8 buckets, 3 * cap / 16 pairs a bucket in the
        # first round: a wave takes buckets until it holds the cap.
        group = BN128.g1
        cap = batch_affine._WAVE_PAIRS
        per_bucket = 3 * cap // 16
        acc, points = group.infinity(), []
        for _ in range(3 * cap):
            acc = acc.add_affine(*group.generator.to_affine())
            points.append(acc.to_affine())
        entries = [(1 + i % 8, pt) for i, pt in enumerate(points)]
        waves = []
        original = batch_affine.batch_affine_add

        def spy(ops, ps, qs):
            waves.append(len(ps))
            return original(ops, ps, qs)

        monkeypatch.setattr(batch_affine, "batch_affine_add", spy)
        self._check(group, 8, entries)
        first = -(-cap // per_bucket) * per_bucket  # whole buckets up to the cap
        assert waves[0] == first < 8 * per_bucket
        assert max(waves) < cap + per_bucket
        assert sum(waves) == len(entries) - 8

    def test_doubling_and_cancellation(self, g1):
        g = g1.generator.to_affine()
        neg_g = (g[0], g1.ops.neg(g[1]))
        h = (g1.generator * 7).to_affine()
        entries = [
            (1, g), (1, g),                 # doubling inside one wave
            (2, g), (2, neg_g),             # exact cancellation -> None
            (3, g), (3, neg_g), (3, h),     # cancellation + survivor
            (4, g), (4, g), (4, g), (4, g),  # repeated doublings
        ]
        got = batch_affine_accumulate(g1, 5, entries)
        assert got[0] == (g1.generator * 2).to_affine()
        assert got[1] is None
        assert got[2] == h
        assert got[3] == (g1.generator * 4).to_affine()
        assert got[4] is None  # untouched bucket

    def test_zero_y_doubling_is_infinity(self, g1):
        # 2 * (x, 0) would have a zero denominator; the classifier must
        # route it to infinity before the inversion batch.  No (x, 0)
        # point exists on these curves, so drive the classifier directly
        # with a synthetic coordinate pair.
        x = 123
        zero = g1.ops.zero if hasattr(g1.ops, "zero") else 0
        got = batch_affine_accumulate(g1, 1, [(1, (x, zero)), (1, (x, zero))])
        assert got[0] is None

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_random_batches(self, seed):
        group = BN128.g1
        r = random.Random(seed)
        n_buckets = r.randrange(1, 7)
        entries = []
        for _ in range(r.randrange(0, 24)):
            pt = (group.generator * r.randrange(1, 50)).to_affine()
            if r.random() < 0.3:
                pt = (pt[0], group.ops.neg(pt[1]))
            entries.append((r.randrange(1, n_buckets + 1), pt))
        self._check(group, n_buckets, entries)


#: Slice counts: whole, even and uneven splits, and more slices than windows.
PART_COUNTS = [1, 2, 3, 5, 40]


@pytest.fixture(params=["bn128.G1", "bn128.G2", "bls12_381.G1", "bls12_381.G2"],
                scope="module")
def slice_case(request):
    curve_name, _, sub = request.param.partition(".")
    group = getattr(get_curve(curve_name), sub.lower())
    order = group.order
    r = random.Random(request.param)
    points = [(group.generator * r.randrange(1, 1 << 16)).to_affine()
              for _ in range(12)]
    scalars = [0, 1, order - 1, order, order + 5, 2 * order - 1]
    scalars += [r.randrange(order) for _ in range(len(points) - len(scalars))]
    points[-1] = None  # an identity point among the live scalars
    return group, points, scalars


def _counters(fn):
    with metrics.collecting() as reg:
        fn()
    return (reg.counter("repro_msm_windows_total"),
            reg.counter("repro_msm_glv_decompositions_total"))


class TestWindowSlices:
    """The slice contract the pool's window-sliced MSM
    (``repro.parallel.kernels.msm_parallel``) rests on: slice ``(j, k)``
    returns ``2^(c*lo)`` times the Horner sum of its windows, so the ``k``
    slices add up to the serial result."""

    @pytest.mark.parametrize("k", PART_COUNTS)
    def test_slices_sum_to_the_serial_msm(self, slice_case, k):
        group, points, scalars = slice_case
        total = group.infinity()
        for j in range(k):
            total = total + msm_glv(group, points, scalars, part=(j, k))
        assert total == msm_glv(group, points, scalars)
        assert total.to_affine() == msm_pippenger(group, points, scalars).to_affine()

    @pytest.mark.parametrize("k", PART_COUNTS)
    def test_counters_under_slicing(self, slice_case, k):
        group, points, scalars = slice_case
        windows, decompositions = _counters(lambda: msm_glv(group, points, scalars))
        sliced_windows, sliced_decompositions = _counters(lambda: [
            msm_glv(group, points, scalars, part=(j, k)) for j in range(k)])
        # Every window pass runs in exactly one slice ...
        assert sliced_windows == windows
        # ... but every slice repeats the GLV split over all live terms:
        # the decomposition counter reads k times the serial one (the work
        # the window-sliced map duplicates, on G1 and G2 alike).
        assert sliced_decompositions == k * decompositions
        assert decompositions > 0

    def test_slices_past_the_window_count_are_infinity(self, slice_case):
        group, _points, _scalars = slice_case
        point = group.generator.to_affine()
        parts = [msm_glv(group, [point], [1], part=(j, 40)) for j in range(40)]
        assert sum(not p.is_infinity() for p in parts) == 1
        total = group.infinity()
        for p in parts:
            total = total + p
        assert total == group.generator
