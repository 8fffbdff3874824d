"""Tracer tests: counting, regions, memory events, pacing, biasing."""

import pytest

from repro.context import RUN
from repro.perf.trace import AddressSpace, Tracer, tracing


class TestLifecycle:
    def test_current_none_by_default(self):
        assert RUN.tracer is None

    def test_tracing_installs_and_removes(self):
        tr = Tracer()
        with tracing(tr) as got:
            assert got is tr
            assert RUN.tracer is tr
        assert RUN.tracer is None

    def test_tracer_removed_on_exception(self):
        with pytest.raises(ValueError):
            with tracing(Tracer()):
                raise ValueError("boom")
        assert RUN.tracer is None

    def test_invalid_mem_sample(self):
        with pytest.raises(ValueError):
            Tracer(mem_sample=0)


class TestCounting:
    def test_op_counts_and_clock(self):
        tr = Tracer()
        tr.op("a")
        tr.op("b", 5)
        assert tr.total_counts() == {"a": 1, "b": 5}
        assert tr.clock == 6

    def test_region_partition(self):
        tr = Tracer()
        tr.op("root_op")
        with tr.region("outer"):
            tr.op("outer_op", 2)
            with tr.region("inner"):
                tr.op("inner_op", 3)
            tr.op("outer_op")
        total = tr.total_counts()
        assert total == {"root_op": 1, "outer_op": 3, "inner_op": 3}
        names = [r.name for r in tr.iter_regions()]
        assert names == ["<root>", "outer", "inner"]

    def test_counts_by_parallel(self):
        tr = Tracer()
        tr.op("serial_op", 10)
        with tr.region("par", parallel=True):
            tr.op("par_op", 4)
            with tr.region("helper"):  # inherits parallel
                tr.op("helper_op", 2)
            with tr.region("forced_serial", parallel=False):
                tr.op("ser_op", 1)
        serial, parallel = tr.counts_by_parallel()
        assert serial == {"serial_op": 10, "ser_op": 1}
        assert parallel == {"par_op": 4, "helper_op": 2}

    def test_region_exception_safe(self):
        tr = Tracer()
        with pytest.raises(RuntimeError):
            with tr.region("r"):
                raise RuntimeError("x")
        tr.op("after")
        assert tr.root.counts["after"] == 1


class TestMemoryEvents:
    def test_single_accesses_stamped_with_clock(self):
        tr = Tracer()
        tr.op("x", 7)
        tr.mem_load(0x1000, 32)
        tr.mem_store(0x2000, 8, weight=3)
        (l, s) = tr.mem_events
        assert l == ("L", 0x1000, 32, 1, 7)
        assert s == ("S", 0x2000, 8, 3, 7)

    def test_mem_block_kinds(self):
        tr = Tracer()
        tr.mem_block(0x1000, 256)
        tr.mem_block(0x2000, 256, write=True)
        tr.mem_block(0x3000, 0)  # ignored
        kinds = [e[0] for e in tr.mem_events]
        assert kinds == ["LB", "SB"]

    def test_memcpy_paced_in_segments(self):
        tr = Tracer()
        tr.memcpy(0x100000, 0x200000, 3 * Tracer.STREAM_SEGMENT)
        loads = [e for e in tr.mem_events if e[0] == "LB"]
        stores = [e for e in tr.mem_events if e[0] == "SB"]
        assert len(loads) == 3 and len(stores) == 3
        # Clock must advance between segments.
        clocks = [e[4] for e in loads]
        assert clocks[0] < clocks[1] < clocks[2]
        assert sum(e[2] for e in loads) == 3 * Tracer.STREAM_SEGMENT

    def test_memcpy_counts_chunks(self):
        tr = Tracer()
        tr.memcpy(0, 0, 1600)
        assert tr.total_counts()["memcpy"] == 1
        assert tr.total_counts()["memcpy_chunk"] == 1 + 1600 // 16

    def test_stream_pacing_controls_density(self):
        fast, slow = Tracer(), Tracer()
        fast.stream(0, 64 * 1024, ticks_per_kb=8)
        slow.stream(0, 64 * 1024, ticks_per_kb=64)
        assert slow.clock == 8 * fast.clock

    def test_stream_write_flag(self):
        tr = Tracer()
        tr.stream(0, 1024, write=True)
        assert tr.mem_events[0][0] == "SB"

    def test_malloc_returns_distinct_addresses(self):
        tr = Tracer()
        a = tr.malloc(100)
        b = tr.malloc(100)
        assert b > a
        assert tr.total_counts()["malloc"] == 2

    def test_page_fault(self):
        tr = Tracer()
        tr.page_fault(4)
        assert tr.total_counts()["page_fault"] == 4


class TestAddressSpace:
    def test_alignment(self):
        asp = AddressSpace()
        a = asp.alloc(10, align=64)
        b = asp.alloc(10, align=64)
        assert a % 64 == 0 and b % 64 == 0
        assert b >= a + 10

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            AddressSpace().alloc(-1)


class TestLoadStoreBias:
    def test_region_scales_recorded(self):
        tr = Tracer()
        with tr.region("biased", load_scale=2.0, store_scale=0.25) as rec:
            tr.op("bigint_mul_4", 10)
        assert rec.load_scale == 2.0
        assert rec.store_scale == 0.25

    def test_bias_applied_in_aggregation(self):
        from repro.perf.costmodel import aggregate_tracer, cost_of

        tr = Tracer()
        with tr.region("biased", load_scale=2.0, store_scale=0.5):
            tr.op("bigint_mul_4", 10)
        summary = aggregate_tracer(tr)
        c = cost_of("bigint_mul_4")
        assert summary.loads == pytest.approx(10 * c.loads * 2.0)
        assert summary.stores == pytest.approx(10 * c.stores * 0.5)
