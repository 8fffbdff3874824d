"""Checksummed payloads, the cell store, and kill-and-resume semantics."""

import glob
import os
import pickle

import pytest

from repro.harness import runner
from repro.obs import metrics
from repro.resilience.checkpoint import (
    CellStore,
    read_checksummed,
    write_checksummed,
)
from repro.resilience.errors import ArtifactCorruption


class TestChecksummedPayload:
    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "x.pkl")
        obj = {"a": [1, 2, 3], "b": "payload"}
        write_checksummed(path, obj)
        assert read_checksummed(path) == obj

    def test_truncation_detected(self, tmp_path):
        path = str(tmp_path / "x.pkl")
        write_checksummed(path, list(range(100)))
        data = open(path, "rb").read()
        open(path, "wb").write(data[: len(data) // 2])
        with pytest.raises(ArtifactCorruption, match="mismatch|too short"):
            read_checksummed(path)

    def test_bit_flip_detected(self, tmp_path):
        path = str(tmp_path / "x.pkl")
        write_checksummed(path, list(range(100)))
        data = bytearray(open(path, "rb").read())
        data[10] ^= 0x40
        open(path, "wb").write(bytes(data))
        with pytest.raises(ArtifactCorruption, match="sha256 mismatch"):
            read_checksummed(path)

    def test_plain_pickle_rejected(self, tmp_path):
        # A pre-checksum cache file must read as corrupt, not as data.
        path = str(tmp_path / "x.pkl")
        with open(path, "wb") as f:
            pickle.dump({"legacy": True}, f)
        with pytest.raises(ArtifactCorruption):
            read_checksummed(path)

    def test_write_is_atomic_no_tmp_left(self, tmp_path):
        path = str(tmp_path / "x.pkl")
        write_checksummed(path, "v")
        assert os.listdir(tmp_path) == ["x.pkl"]


class TestCellStore:
    def test_store_load_roundtrip(self, tmp_path):
        store = CellStore(str(tmp_path / "cells"))
        store.store("cell_bn128_8.pkl", {"stage": "data"})
        assert store.load("cell_bn128_8.pkl") == {"stage": "data"}
        assert store.load("cell_bn128_16.pkl") is None

    def test_manifest_written_once(self, tmp_path):
        store = CellStore(str(tmp_path), manifest={"seed": 0})
        store.store("a.pkl", {})
        manifest = tmp_path / "MANIFEST.json"
        before = manifest.read_text()
        store.store("b.pkl", {})
        assert manifest.read_text() == before

    def test_corrupt_cell_self_heals(self, tmp_path):
        store = CellStore(str(tmp_path))
        store.store("cell.pkl", {"good": 1})
        cell = str(tmp_path / "cell.pkl")
        data = bytearray(open(cell, "rb").read())
        data[-1] ^= 0xFF  # break the digest trailer
        open(cell, "wb").write(bytes(data))
        with metrics.collecting() as reg:
            assert store.load("cell.pkl") is None
        assert not os.path.exists(cell)  # evicted
        assert reg.counter("repro_resilience_checkpoint_evictions_total") == 1


class TestKillAndResume:
    """A killed sweep resumes from ``profile_run``'s self-healing disk
    cache: finished cells load, only the rest are recomputed."""

    CURVES = ("bn128",)
    SIZES = (8, 16, 32)

    @pytest.fixture(autouse=True)
    def cache_dir(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        self.new_process(monkeypatch)
        return tmp_path

    @staticmethod
    def new_process(monkeypatch):
        """Drop the in-process memo, as a rerun after a kill would."""
        monkeypatch.setattr(runner, "_MEMO", {})

    @staticmethod
    def _deterministic(profiles):
        """The model-output (machine-independent) face of one cell."""
        return {
            stage: (p.instructions, p.cycles, p.loads, p.stores)
            for stage, p in profiles.items()
        }

    def sweep(self):
        with metrics.collecting() as reg:
            cells = runner.profile_sweep(curve_names=self.CURVES,
                                         sizes=self.SIZES)
        return cells, reg

    def interrupted_sweep(self, monkeypatch, after):
        """Run the sweep, killing it once *after* cells have finished."""
        real = runner.profile_run
        done = []

        def killing(curve_name, size, **kw):
            if len(done) == after:
                raise KeyboardInterrupt  # simulated mid-sweep kill
            done.append((curve_name, size))
            return real(curve_name, size, **kw)

        monkeypatch.setattr(runner, "profile_run", killing)
        with pytest.raises(KeyboardInterrupt):
            self.sweep()
        monkeypatch.setattr(runner, "profile_run", real)
        self.new_process(monkeypatch)
        return done

    def test_interrupted_sweep_resumes_without_recompute(self, cache_dir,
                                                         monkeypatch):
        done = self.interrupted_sweep(monkeypatch, after=2)
        assert done == [("bn128", 8), ("bn128", 16)]
        stored = {path: open(path, "rb").read()
                  for path in glob.glob(str(cache_dir / "profile_*.pkl"))}
        assert len(stored) == 2  # the finished cells, pre-resume

        resumed, reg = self.sweep()
        # Only the unfinished cell was recomputed ...
        assert reg.counter("repro_harness_cache_disk_hits_total") == 2
        assert reg.counter("repro_harness_cache_misses_total") == 1
        # ... and the finished cells' stored bytes are untouched.
        for path, before in stored.items():
            assert open(path, "rb").read() == before
        assert len(glob.glob(str(cache_dir / "profile_*.pkl"))) == 3

        # The resumed sweep matches an uninterrupted reference run on
        # every deterministic model output.
        monkeypatch.setenv("REPRO_CACHE", "0")
        self.new_process(monkeypatch)
        reference, ref_reg = self.sweep()
        assert ref_reg.counter("repro_harness_cache_misses_total") == 3
        assert sorted(resumed) == sorted(reference)
        for cell in reference:
            assert self._deterministic(resumed[cell]) == \
                self._deterministic(reference[cell])

    def test_bit_flipped_cell_is_evicted_and_recomputed(self, cache_dir,
                                                        monkeypatch):
        intact, _ = self.sweep()
        victim = glob.glob(str(cache_dir / "profile_*_bn128_16_*.pkl"))[0]
        data = bytearray(open(victim, "rb").read())
        data[len(data) // 2] ^= 0x01
        open(victim, "wb").write(bytes(data))

        self.new_process(monkeypatch)
        healed, reg = self.sweep()
        assert reg.counter("repro_harness_cache_evictions_total") == 1
        assert reg.counter("repro_harness_cache_misses_total") == 1
        assert reg.counter("repro_harness_cache_disk_hits_total") == 2
        assert read_checksummed(victim)  # rewritten whole
        for cell in intact:
            assert self._deterministic(healed[cell]) == \
                self._deterministic(intact[cell])

    def test_cache_off_recomputes(self, monkeypatch):
        self.sweep()
        monkeypatch.setenv("REPRO_CACHE", "0")
        self.new_process(monkeypatch)
        _, reg = self.sweep()
        assert reg.counter("repro_harness_cache_misses_total") == 3
