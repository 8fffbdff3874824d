"""Charged equals executed for ``FixedBaseTable`` (docs/KERNELS.md,
"Charging a reference").

A traced construction, ``mul`` or ``mul_many`` computes its value by the
batch walk (``mul``: ``base * k``) with the tracer detached and is charged
the stored-table walk from the scalars' digits: the table's build once a
table, then one walk a scalar.  Each test holds that trace equal to the
stored-table walk executed under a tracer
(:func:`tests.oracle.executed_curve_ops`) — values, the region tree with
every region's counts, the clock and the memory events with their clock
stamps — on both curves, G1 and G2, and for the traced protocol calls that
reach it.  ``REPRO_KERNEL_FULL=1`` widens the examples.
"""

import os
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.curves import BLS12_381, BN128
from repro.groth16 import setup
from repro.msm.fixed_base import FixedBaseTable
from repro.plonk.kzg import SRS
from tests import oracle
from tests.conftest import make_pow_circuit

FULL = os.environ.get("REPRO_KERNEL_FULL") == "1"
EXAMPLES = 25 if FULL else 3

GROUPS = {g.name: g for c in (BN128, BLS12_381) for g in (c.g1, c.g2)}

all_groups = pytest.mark.parametrize("name", sorted(GROUPS))


def charged_and_executed(fn, *args):
    """The traces of ``fn(*args)`` as charged, and with the stored-table
    walk executed in place of each charge."""
    charged = oracle.trace(fn, *args)
    with oracle.executed_curve_ops():
        executed = oracle.trace(fn, *args)
    return charged, executed


def twin_tables(group, width, bits=None):
    """Two tables of ``5 G``, their builds charged and executed: what a
    walk on the first is charged, on the second executed."""
    base = group.generator * 5
    charged = oracle.trace(FixedBaseTable, base, width, bits)[0]
    with oracle.executed_curve_ops():
        executed = oracle.trace(FixedBaseTable, base, width, bits)[0]
    return charged, executed


def assert_walks(tables, method, *args):
    """*method* of the charged table traced leaves the trace of the executed
    table's, and its value is the stored-table walk's."""
    charged_table, executed_table = tables
    charged = oracle.trace(getattr(charged_table, method), *args)
    with oracle.executed_curve_ops():
        executed = oracle.trace(getattr(executed_table, method), *args)
    assert charged[1:] == executed[1:]
    values = charged[0] if method == "mul_many" else [charged[0]]
    scalars = args[0] if method == "mul_many" else args
    assert [p.to_affine() for p in values] == \
        [p.to_affine() for p in oracle.stored_walk(charged_table, scalars)]
    return charged


def edge_scalars(group, width):
    """Zero, the edges of ``[0, r)``, all-zero windows, the top window
    alone, and scalars at or above ``r``."""
    r = group.order
    n_windows = -(-r.bit_length() // width)
    top = (1 << (width * (n_windows - 1)))
    return [0, 1, 2, r - 1, r, r + 1, 3 * r + 7, top, top + 1, (1 << width) - 1,
            1 << (width * (n_windows // 2)), random.Random(width).randrange(r)]


@all_groups
class TestBuild:
    @pytest.mark.parametrize("width", [1, 2, 3, 4])
    def test_construction_under_a_tracer(self, name, width):
        charged, executed = charged_and_executed(FixedBaseTable, GROUPS[name].generator, width)
        assert charged[1:] == executed[1:]
        build = charged[1].children[0]
        assert build.name == "fixed_base_table_build" and build.items == charged[0].n_windows
        # One store burst a window, every one at the table's base (CHANGES.md).
        stores = [e for e in charged[3] if e[0] == "SB"]
        assert len(stores) == charged[0].n_windows
        assert {e[1] for e in stores} == {charged[0]._table_base}

    def test_first_traced_call_charges_the_build(self, name):
        group = GROUPS[name]
        tables = FixedBaseTable(group.generator, 3), FixedBaseTable(group.generator, 3)
        charged = assert_walks(tables, "mul", 12345)
        assert [rec.name for rec in charged[1].children] == ["fixed_base_table_build"]
        # Built once a table: the next traced call is charged the walk alone.
        assert assert_walks(tables, "mul", 12345)[1].children == []


@all_groups
class TestWalks:
    @pytest.mark.parametrize("width", [1, 3, 4])
    def test_edge_scalars(self, name, width):
        group = GROUPS[name]
        tables = twin_tables(group, width)
        scalars = edge_scalars(group, width)
        charged = assert_walks(tables, "mul_many", scalars)
        (region,) = charged[1].children
        assert region.name == "fixed_base_mul_many" and region.items == len(scalars)
        for k in scalars:
            assert_walks(tables, "mul", k)

    def test_zero_scalars_are_charged_no_walk(self, name):
        group = GROUPS[name]
        tables = twin_tables(group, 3)
        charged = assert_walks(tables, "mul_many", [0, group.order, 0])
        assert charged[1].children[0].counts == {} and charged[3] == []

    @settings(max_examples=EXAMPLES, deadline=None)
    @given(scalars=st.lists(st.integers(0, 1 << 256), max_size=4), width=st.integers(1, 4))
    def test_any_scalars(self, name, scalars, width):
        group = GROUPS[name]
        assert_walks(twin_tables(group, width), "mul_many", scalars)

    def test_restricted_bits(self, name):
        tables = twin_tables(GROUPS[name], 4, bits=32)
        assert_walks(tables, "mul_many", [0xDEADBEEF, (1 << 32) - 1, 0x80000000, 1])


@pytest.mark.parametrize("curve", [BN128, BLS12_381], ids=["bn128", "bls12_381"])
class TestProtocols:
    def test_setup(self, curve):
        circuit, _inputs = make_pow_circuit(curve, 4)
        charged, executed = charged_and_executed(
            lambda: setup(curve, circuit, random.Random(41)))
        assert charged == executed

    def test_srs_generate(self, curve):
        charged, executed = charged_and_executed(
            lambda: SRS.generate(curve, 6, random.Random(37)))
        assert charged[1:] == executed[1:]
        assert charged[0].g1_powers == executed[0].g1_powers
