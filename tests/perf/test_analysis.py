"""Tests for the analysis façade plus the opcode/function reducers."""

import pytest

from repro.perf.analysis import analyze_stage
from repro.perf.cache import LLCModel
from repro.perf.cpu import ALL_CPUS, get_cpu
from repro.perf.functions import FUNCTION_DESCRIPTIONS, function_hotspots
from repro.perf.opcodes import opcode_mix
from repro.perf.trace import Tracer


def make_traced_workload():
    tr = Tracer(mem_events=LLCModel())
    tr.op("malloc", 50)
    with tr.region("kernel", parallel=True):
        tr.op("bigint_mul_4", 5000)
        tr.op("bigint_add_4", 8000)
        base = tr.malloc(1 << 16)
        tr.mem_block(base, 1 << 16)
        tr.mem_load(base + 4096, 32)
    tr.memcpy(tr.malloc(4096), base, 4096)
    return tr


class TestOpcodeMix:
    def test_percentages_sum(self):
        mix = opcode_mix(make_traced_workload())
        assert mix.compute_pct + mix.control_pct + mix.data_pct == pytest.approx(100.0)

    def test_intensive_label(self):
        tr = Tracer()
        tr.op("bigint_mul_4", 1000)
        assert opcode_mix(tr).intensive == "compute"
        tr2 = Tracer()
        tr2.op("memcpy_chunk", 1000)
        assert opcode_mix(tr2).intensive == "data"


class TestFunctionHotspots:
    def test_shares_sum_to_one(self):
        prof = function_hotspots(make_traced_workload())
        assert sum(h.share for h in prof.hotspots) == pytest.approx(1.0)

    def test_sorted_descending(self):
        prof = function_hotspots(make_traced_workload())
        shares = [h.share for h in prof.hotspots]
        assert shares == sorted(shares, reverse=True)

    def test_bigint_dominates_this_workload(self):
        prof = function_hotspots(make_traced_workload())
        assert prof.hotspots[0].function == "bigint"
        assert prof.share_of("bigint") > 0.5

    def test_share_of_absent_function(self):
        prof = function_hotspots(make_traced_workload())
        assert prof.share_of("pairing") == 0.0

    def test_descriptions_cover_table_iv(self):
        for fn in ("memcpy", "bigint", "heap allocation", "malloc",
                   "page fault exception handler"):
            assert fn in FUNCTION_DESCRIPTIONS
        prof = function_hotspots(make_traced_workload())
        assert prof.hotspots[0].description

    def test_top_n(self):
        prof = function_hotspots(make_traced_workload())
        assert len(prof.top(2)) == 2


class TestAnalyzeStage:
    @pytest.fixture(scope="class")
    def profile(self):
        tr = make_traced_workload()
        return analyze_stage(tr, stage="proving", curve="bn128", size=64, elapsed=1.5)

    def test_metadata(self, profile):
        assert profile.stage == "proving"
        assert profile.curve == "bn128"
        assert profile.size == 64
        assert profile.elapsed == 1.5

    def test_per_cpu_views(self, profile):
        assert set(profile.per_cpu) == {spec.name for spec in ALL_CPUS}
        view = profile.view("i9-13900K")
        assert view.load_mpki >= 0
        assert view.bandwidth.max_gbps >= 0
        td = view.topdown
        total = td.frontend + td.bad_speculation + td.backend + td.retiring
        assert total == pytest.approx(1.0)

    def test_split_extracted(self, profile):
        assert profile.split.parallel_cycles > 0
        assert profile.split.serial_cycles > 0

    def test_counters_positive(self, profile):
        assert profile.instructions > 0
        assert profile.loads > 0
        assert profile.stores > 0

    def test_picklable(self, profile):
        import pickle

        blob = pickle.dumps(profile)
        back = pickle.loads(blob)
        assert back.stage == "proving"
        assert back.view("i7-8650U").load_mpki == profile.view("i7-8650U").load_mpki


class TestCpuLookup:
    def test_aliases(self):
        assert get_cpu("i7").name == "i7-8650U"
        assert get_cpu("I5-11400").name == "i5-11400"

    def test_unknown(self):
        with pytest.raises(ValueError):
            get_cpu("m1")

    def test_thread_profiles_match_table1(self):
        assert len(get_cpu("i7").thread_profile) == 8
        assert len(get_cpu("i5").thread_profile) == 12
        assert len(get_cpu("i9").thread_profile) == 32

    def test_parallel_capacity_monotone(self):
        spec = get_cpu("i9")
        caps = [spec.parallel_capacity(n) for n in range(1, 33)]
        assert caps == sorted(caps)
        assert spec.parallel_capacity(100) == spec.parallel_capacity(32)

    def test_mem_latency_cycles(self):
        spec = get_cpu("i9")
        assert spec.mem_latency_cycles == pytest.approx(80.0 * 3.0)
