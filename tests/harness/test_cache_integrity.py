"""Disk-cache self-healing: corrupt entries are evicted and recomputed,
and a cell whose run fails is never cached."""

import glob
import os

import pytest

from repro.harness import runner
from repro.obs import metrics
from repro.resilience import faults
from repro.resilience.checkpoint import read_checksummed
from repro.resilience.errors import ResourceExhausted
from repro.resilience.faults import FaultSpec

CELL = dict(curve_name="bn128", size=8)


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(runner, "_MEMO", {})
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    return tmp_path


def _cache_file(cache_dir):
    files = glob.glob(str(cache_dir / "profile_*.pkl"))
    assert len(files) == 1
    return files[0]


class TestCacheIntegrity:
    def test_entries_carry_checksum_trailer(self, cache_dir):
        runner.profile_run(**CELL)
        # The file parses under the checksummed reader — i.e. the trailer
        # is present and matches the payload.
        profiles = read_checksummed(_cache_file(cache_dir))
        assert set(profiles) == set(runner.STAGES)

    def test_truncated_entry_evicted_and_recomputed(self, cache_dir,
                                                    monkeypatch):
        runner.profile_run(**CELL)
        path = _cache_file(cache_dir)
        data = open(path, "rb").read()
        open(path, "wb").write(data[: len(data) // 2])

        monkeypatch.setattr(runner, "_MEMO", {})  # force the disk path
        with metrics.collecting() as reg:
            profiles = runner.profile_run(**CELL)
        assert reg.counter("repro_harness_cache_evictions_total") == 1
        assert reg.counter("repro_harness_cache_misses_total") == 1
        assert reg.counter("repro_harness_cache_disk_hits_total") == 0
        assert set(profiles) == set(runner.STAGES)
        # The rewritten entry is whole again.
        assert read_checksummed(_cache_file(cache_dir))

    def test_bit_flipped_entry_evicted(self, cache_dir, monkeypatch):
        runner.profile_run(**CELL)
        path = _cache_file(cache_dir)
        data = bytearray(open(path, "rb").read())
        data[len(data) // 2] ^= 0x01
        open(path, "wb").write(bytes(data))

        monkeypatch.setattr(runner, "_MEMO", {})
        with metrics.collecting() as reg:
            runner.profile_run(**CELL)
        assert reg.counter("repro_harness_cache_evictions_total") == 1

    def test_intact_entry_still_hits(self, cache_dir, monkeypatch):
        runner.profile_run(**CELL)
        monkeypatch.setattr(runner, "_MEMO", {})
        with metrics.collecting() as reg:
            runner.profile_run(**CELL)
        assert reg.counter("repro_harness_cache_disk_hits_total") == 1
        assert reg.counter("repro_harness_cache_evictions_total") == 0

    def test_eviction_removes_the_corrupt_file_before_recompute(
            self, cache_dir, monkeypatch):
        runner.profile_run(**CELL)
        path = _cache_file(cache_dir)
        open(path, "wb").write(b"short")

        removed = []
        real_remove = os.remove
        monkeypatch.setattr(runner, "_MEMO", {})
        monkeypatch.setattr(runner.os, "remove",
                            lambda p: (removed.append(p), real_remove(p)))
        runner.profile_run(**CELL)
        assert removed == [path]


class TestFailedCellIsNotCached:
    @pytest.mark.parametrize("stage", runner.STAGES)
    def test_oom_at_a_stage_propagates_and_caches_nothing(self, cache_dir,
                                                           stage):
        plan = [FaultSpec(f"stage:{stage}", "oom", hit=1)]
        with faults.injecting(plan) as inj:
            with pytest.raises(ResourceExhausted):
                runner.profile_run(**CELL)
        assert inj.pending() == []
        assert runner._MEMO == {}
        assert glob.glob(str(cache_dir / "*")) == []

    def test_next_call_computes_the_cell_fresh(self, cache_dir):
        with faults.injecting([FaultSpec("stage:witness", "oom", hit=1)]):
            with pytest.raises(ResourceExhausted):
                runner.profile_run(**CELL)
        with metrics.collecting() as reg:
            profiles = runner.profile_run(**CELL)
        assert reg.counter("repro_harness_cache_misses_total") == 1
        assert read_checksummed(_cache_file(cache_dir)).keys() == \
               profiles.keys()

    def test_profiles_count_each_memory_event_once(self, cache_dir):
        # A profile's LLC counters are the model's, unscaled: the same
        # stage's stored trace, fed to a model, gives the same numbers on
        # every CPU.
        from repro.curves import get_curve
        from repro.harness.circuits import build_exponentiate
        from repro.perf.cache import LLCModel
        from repro.perf.cpu import ALL_CPUS
        from repro.perf.trace import Tracer
        from repro.workflow import Workflow

        profiles = runner.profile_run(**CELL)
        curve = get_curve(CELL["curve_name"])
        builder, inputs = build_exponentiate(curve, CELL["size"])
        tracers = {stage: Tracer() for stage in runner.STAGES}
        Workflow(curve, builder, inputs, seed=0).run_all(tracers)
        model = LLCModel()
        for event in tracers["proving"].mem_events:
            model.append(event)
        for spec, llc in zip(ALL_CPUS, model.caches):
            stats = llc.stats
            view = profiles["proving"].view(spec.name)
            assert view.llc_load_misses == stats.load_misses
            assert view.llc_store_misses == stats.store_misses

    def test_run_verb_ends_typed_and_writes_no_cache(self, cache_dir,
                                                     monkeypatch, capsys):
        from repro.cli import main

        monkeypatch.chdir(cache_dir)
        with faults.injecting([FaultSpec("stage:proving", "oom", hit=1)]):
            code = main(["run", "fig4", "--curve", "bn128", "--size", "8"],
                        out=lambda line: None)
        err = capsys.readouterr().err.strip()
        assert code == 2
        assert err.startswith("error[resources]:") and "\n" not in err
        assert runner._MEMO == {}
        assert glob.glob(str(cache_dir / "*")) == []


def test_no_traced_cell_keeps_the_stream(monkeypatch):
    # Every stage's memory events went to the LLC model as they happened:
    # no tracer holds a list, and the model holds only its caches' resident
    # lines and one byte count per bandwidth window.
    from repro.perf.bandwidth import DEFAULT_WINDOW_TICKS
    from repro.perf.cache import LLCModel
    from repro.workflow import Workflow

    made = []

    class Recorded(Workflow):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(runner, "_MEMO", {})
    monkeypatch.setenv("REPRO_CACHE", "0")
    monkeypatch.setattr(runner, "Workflow", Recorded)
    runner.profile_run("bn128", 64)
    (wf,) = made
    assert set(wf.results) == set(runner.STAGES)
    for result in wf.results.values():
        model = result.tracer.mem_events
        assert type(model) is LLCModel
        assert vars(model).keys() == {"caches"}
        for llc in model.caches:
            assert sum(map(len, llc._sets)) <= llc.n_sets * llc.assoc
            assert len(llc.bins) <= result.tracer.clock // DEFAULT_WINDOW_TICKS + 1
