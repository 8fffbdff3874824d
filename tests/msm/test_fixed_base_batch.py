"""The fixed-base batch walk against the tracer's oracle (docs/KERNELS.md,
"Fixed-base batch walk").

An untraced ``FixedBaseTable.mul_many`` walks all scalars window by window
in affine coordinates; under a tracer the same call is the per-scalar
Jacobian walk of the stored table, which is the reference here
(``tests/oracle.py``).  The default matrix keeps tier-1 short; the CI
``kernel-test`` job and ``make kernel-test`` set ``REPRO_KERNEL_FULL=1``
for four groups x 2^6..2^11 scalars.
"""

import os
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.curves import BLS12_381, BN128
from repro.msm.batch_affine import batch_affine_add
from repro.msm.fixed_base import FixedBaseTable, _digit_columns, _walk_width
from repro.msm.recode import signed_windows, signed_windows_len
from repro.obs.metrics import MetricsRegistry, collecting
from repro.resilience.errors import StageTimeout
from repro.resilience.retry import deadline_scope
from tests.oracle import reference

FULL = os.environ.get("REPRO_KERNEL_FULL") == "1"
SIZES = tuple(2 ** i for i in range(6, 12)) if FULL else (0, 1, 2, 7, 33, 130)
GROUPS = {g.name: g for c in (BN128, BLS12_381) for g in (c.g1, c.g2)}
INVERSIONS = "repro_msm_batch_affine_inversions_total"

#: (group name, base multiple) -> table, shared across the sizes.
_TABLES = {}


def _table(group_name, multiple):
    key = (group_name, multiple)
    if key not in _TABLES:
        _TABLES[key] = FixedBaseTable(GROUPS[group_name].generator * multiple)
    return _TABLES[key]


def _scalars(order, n, seed):
    """*n* scalars cycling through the edge classes, with duplicates."""
    r = random.Random(seed)
    draws = [
        lambda: 0, lambda: 1, lambda: 2, lambda: order - 1, lambda: order,
        lambda: order + 9, lambda: 1 << r.randrange(order.bit_length()),
        lambda: r.randrange(2 * order), lambda: r.randrange(1 << 64),
    ]
    scalars = [draws[r.randrange(len(draws))]() for _ in range(n)]
    if n > 2:
        scalars[-1] = scalars[n // 2]  # at least one duplicate pair
    return scalars


def _assert_walk_matches_reference(table, scalars):
    group = table.group
    fast = table.mul_many(scalars)
    ref = reference(table.mul_many, scalars)
    assert len(fast) == len(scalars)
    assert [p.to_affine() for p in fast] == [p.to_affine() for p in ref]
    for k, p in zip(scalars, fast):
        if k % group.order == 0:
            assert p.is_infinity()
        else:
            assert p.Z == group.ops.one


@pytest.mark.parametrize("multiple", [1, 97], ids=["generator", "97G"])
@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("group_name", sorted(GROUPS))
def test_walk_matches_reference(group_name, n, multiple):
    table = _table(group_name, multiple)
    _assert_walk_matches_reference(table, _scalars(table.group.order, n, seed=n))


@pytest.mark.parametrize("group_name", sorted(GROUPS))
def test_all_zero_scalars(group_name):
    table = _table(group_name, 1)
    order = table.group.order
    with collecting(MetricsRegistry()) as registry:
        out = table.mul_many([0, order, 2 * order, 0])
    assert len(out) == 4 and all(p.is_infinity() for p in out)
    assert registry.counter(INVERSIONS) == 0  # nothing live: no wave at all


def test_infinite_base():
    g1 = BN128.g1
    out = FixedBaseTable(g1.infinity()).mul_many([0, 1, 12345])
    assert all(p.is_infinity() for p in out)


def _doubling_scalar(order, bits, n):
    """A scalar ``k = 2 d 2^(w j) - r`` whose running sum, when the walk over
    *n* live scalars reaches window ``j``, *is* the entry ``d 2^(w j) B`` it
    is about to add (``lower = d 2^(w j) - r`` as an integer, the same point)
    — or ``None`` when the order leaves no such window at that width."""
    w = _walk_width(bits, n)
    n_windows = signed_windows_len(bits, w)
    for j in range(1, n_windows):
        d = (order + (1 << (w * j - 1))) >> (w * j)  # round(order / 2^(w j))
        k = (2 * d << (w * j)) - order
        if not (0 < d <= 1 << (w - 1) and 0 < k < order):
            continue
        if signed_windows(k, w, n_windows)[j:] == [d] + [0] * (n_windows - j - 1):
            return k
    return None


class TestReachableDoubling:
    """``P + P`` inside the walk's wave is reachable with honest scalars, so
    the pair classification ahead of the shared inversion is load-bearing:
    without it the wave divides by zero."""

    @pytest.mark.parametrize("n,w,j,d", [(7, 3, 84, 3), (2050, 10, 25, 12)])
    @pytest.mark.parametrize("group", [BN128.g1, BN128.g2], ids=["G1", "G2"])
    def test_bn128(self, group, n, w, j, d):
        order = group.order
        bits = order.bit_length()
        assert _walk_width(bits, n) == w
        k = _doubling_scalar(order, bits, n)
        assert k == (2 * d << (w * j)) - order
        r = random.Random(n)
        scalars = [k] + [r.randrange(1, order) for _ in range(n - 1)]
        out = FixedBaseTable(group.generator, width=3).mul_many(scalars)
        assert out[0] == group.generator * k
        assert out[0].to_affine() == (group.generator * k).to_affine()
        assert out[-1] == group.generator * scalars[-1]

    @pytest.mark.parametrize("n", [7, 2050])
    def test_bls12_381_has_none_at_these_widths(self, n):
        order = BLS12_381.g1.order
        assert _doubling_scalar(order, order.bit_length(), n) is None


class TestBatchAffineAdd:
    @pytest.fixture(params=["G1", "G2"])
    def group(self, request):
        return BN128.g1 if request.param == "G1" else BN128.g2

    def test_every_pair_class_in_one_wave(self, group):
        ops = group.ops
        p = group.generator.to_affine()
        q = (group.generator * 5).to_affine()
        neg_p = (p[0], ops.neg(p[1]))
        with collecting(MetricsRegistry()) as registry:
            out = batch_affine_add(
                ops, [None, p, None, p, p, p], [q, None, None, q, p, neg_p])
        assert out == [
            q, p, None,
            (group.generator * 6).to_affine(),  # chord
            (group.generator * 2).to_affine(),  # P + P: tangent
            None,                               # P + (-P)
        ]
        assert registry.counter(INVERSIONS) == 1

    def test_empty_and_slope_free_waves_invert_nothing(self, group):
        p = group.generator.to_affine()
        neg_p = (p[0], group.ops.neg(p[1]))
        with collecting(MetricsRegistry()) as registry:
            assert batch_affine_add(group.ops, [], []) == []
            assert batch_affine_add(group.ops, [p, None], [neg_p, p]) == [None, p]
        assert registry.counter(INVERSIONS) == 0

    def test_one_inversion_per_non_empty_wave(self, group):
        pts = [(group.generator * k).to_affine() for k in range(1, 9)]
        with collecting(MetricsRegistry()) as registry:
            for _ in range(3):
                out = batch_affine_add(group.ops, pts[:4], pts[4:])
        assert out == [(group.generator * (2 * k + 4)).to_affine() for k in range(1, 5)]
        assert registry.counter(INVERSIONS) == 3


@settings(max_examples=200, deadline=None)
@given(k=st.integers(min_value=0, max_value=(1 << 255) - 1),
       w=st.integers(min_value=1, max_value=16))
def test_walk_digits_are_signed_windows(k, w):
    n_windows = signed_windows_len(255, w)
    digits = [column[1] for column in _digit_columns([0, k, 1], w)]
    # The walk stops at the last window any scalar still reaches.
    assert digits + [0] * (n_windows - len(digits)) == signed_windows(k, w, n_windows)
    assert k == 0 or digits[-1] != 0


class TestBits:
    """A table built for fewer bits rejects what it used to truncate
    (``mul(1 << 40)`` returned infinity, ``mul((1 << 40) + 5)`` ``5 G``)."""

    @pytest.mark.parametrize("scalar", [1 << 40, (1 << 40) + 5, 1 << 32, -1])
    def test_too_wide_scalar_raises_on_both_routes(self, scalar):
        table = FixedBaseTable(BN128.g1.generator, width=4, bits=32)
        with pytest.raises(ValueError, match="does not fit"):
            table.mul(scalar)
        with pytest.raises(ValueError, match="does not fit"):
            table.mul_many([3, scalar])
        with pytest.raises(ValueError, match="does not fit"):
            reference(table.mul_many, [3, scalar])

    def test_restricted_bits_walk(self):
        group = BN128.g1
        table = FixedBaseTable(group.generator, width=4, bits=32)
        scalars = [0xDEADBEEF, (1 << 32) - 1, group.order, 1, 0x80000000] * 8
        _assert_walk_matches_reference(table, scalars)
        assert table.mul_many(scalars)[0] == group.generator * 0xDEADBEEF


def test_expired_deadline_stops_the_walk_before_the_first_wave():
    group = BN128.g1
    table = _table(group.name, 1)
    scalars = [random.Random(3).randrange(1, group.order) for _ in range(300)]
    with collecting(MetricsRegistry()) as registry, \
            deadline_scope(0.0, stage="setup"):
        with pytest.raises(StageTimeout) as info:
            table.mul_many(scalars)
    assert info.value.stage == "setup"
    assert registry.counter(INVERSIONS) == 0
