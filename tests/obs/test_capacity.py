"""Capacity sweep tests: frontier/knee math, bottleneck diagnosis, the
resumable checkpointed sweep with schema-v5 ledger records, and the
``pareto`` verb's exit discipline."""

import json
import os

import pytest

from repro.obs.capacity import (
    CapacityCell,
    diagnose,
    knee_point,
    pareto_frontier,
    run_capacity_sweep,
    sweep_configs,
)
from tests.conftest import read_jsonl


def cell(tput, p99, rps=None, workers=1, bw=0.0, q=16, ok=10, **kwargs):
    """A synthetic measured cell; *rps* defaults to *tput* so distinct
    points get distinct configuration keys."""
    return CapacityCell(
        workers=workers, batch_window_s=bw, max_queue=q,
        rps=float(rps if rps is not None else tput),
        throughput_rps=float(tput), p99_s=float(p99), ok=ok, sent=ok,
        **kwargs)


class TestFrontier:
    def test_dominated_cells_are_excluded(self):
        a = cell(10, 0.10)
        b = cell(8, 0.20)    # worse on both axes: dominated by a
        c = cell(12, 0.30)   # more throughput at worse p99: survives
        frontier = pareto_frontier([a, b, c])
        assert a in frontier and c in frontier and b not in frontier

    def test_sorted_by_throughput_ascending(self):
        pts = [cell(12, 0.30), cell(4, 0.05), cell(10, 0.10)]
        frontier = pareto_frontier(pts)
        assert [c.throughput_rps for c in frontier] == [4, 10, 12]

    def test_cells_without_successes_are_excluded(self):
        dead = cell(0.0, 0.0, rps=99, ok=0)
        live = cell(5, 0.1)
        assert pareto_frontier([dead, live]) == [live]

    def test_duplicate_points_collapse_to_one(self):
        a = cell(10, 0.10, rps=10)
        b = cell(10, 0.10, rps=20)  # same point, different config
        assert len(pareto_frontier([a, b])) == 1

    def test_empty(self):
        assert pareto_frontier([]) == []
        assert knee_point([]) is None


class TestKnee:
    def test_elbow_is_found(self):
        cheap = cell(1, 0.010)
        knee = cell(10, 0.012)   # nearly all the throughput, tiny p99 cost
        steep = cell(11, 0.100)  # +1 ok/s for ~10x the tail
        frontier = pareto_frontier([cheap, knee, steep])
        assert len(frontier) == 3
        assert knee_point(frontier) is knee

    def test_single_point_is_its_own_knee(self):
        only = cell(5, 0.1)
        assert knee_point([only]) is only

    def test_two_points_fall_back_to_lower_p99(self):
        low = cell(5, 0.05)
        high = cell(9, 0.50)
        assert knee_point(pareto_frontier([low, high])) is low


class TestDiagnose:
    def test_dominant_phase_maps_to_diagnosis(self):
        assert diagnose({"compute": 0.5, "queue_wait": 0.1}) \
            == "compute-bound"
        assert diagnose({"compute": 0.1, "queue_wait": 0.5}) == "queue-bound"
        assert diagnose({"coalesce_delay": 0.5, "compute": 0.2}) \
            == "coalescing-bound"
        assert diagnose({"retry_backoff": 0.9}) == "retry-bound"
        assert diagnose({"settle": 0.9, "compute": 0.1}) == "overhead-bound"

    def test_empty_is_idle(self):
        assert diagnose({}) == "idle"
        assert diagnose({"compute": 0.0}) == "idle"


class TestSweep:
    def sweep_kwargs(self, tmp_path, **over):
        kwargs = dict(workers_list=(1,), batch_windows=(0.0,),
                      queue_depths=(4,), rps_list=(6.0,), duration_s=0.3,
                      size=8, seed=7, checkpoint_dir=str(tmp_path / "ck"),
                      ledger_path=str(tmp_path / "cap.jsonl"))
        kwargs.update(over)
        return kwargs

    def test_configs_are_the_ordered_product(self):
        configs = sweep_configs((1, 2), (0.0, 0.05), (8,), (4.0,))
        assert [c.config_key for c in configs] == [
            "w1_bw0_q8_rps4", "w1_bw0.05_q8_rps4",
            "w2_bw0_q8_rps4", "w2_bw0.05_q8_rps4"]

    def test_empty_matrix_raises(self):
        with pytest.raises(ValueError, match="empty capacity matrix"):
            run_capacity_sweep(workers_list=())

    def test_sweep_measures_records_v5_and_resumes(self, tmp_path):
        kwargs = self.sweep_kwargs(tmp_path)
        first = run_capacity_sweep(**kwargs)
        assert first.ok
        assert first.phase_violations == 0
        assert not any(c.resumed for c in first.cells)
        recs = read_jsonl(kwargs["ledger_path"])
        assert len(recs) == 1
        assert recs[0]["schema"] == 5
        assert recs[0]["kind"] == "capacity"
        assert recs[0]["capacity"]["config"]["max_queue"] == 4
        assert recs[0]["capacity"]["diagnosis"]
        assert recs[0]["service"]["phases"]["n"] > 0
        # Second run resumes every cell from its checkpoint: identical
        # measurements, no new ledger records.
        second = run_capacity_sweep(**kwargs)
        assert all(c.resumed for c in second.cells)
        assert second.cells[0].throughput_rps \
            == first.cells[0].throughput_rps
        assert second.cells[0].p99_s == first.cells[0].p99_s
        assert len(read_jsonl(kwargs["ledger_path"])) == 1

    def test_corrupt_checkpoint_self_heals(self, tmp_path):
        kwargs = self.sweep_kwargs(tmp_path)
        first = run_capacity_sweep(**kwargs)
        ck = first.checkpoint_dir
        cells = [f for f in os.listdir(ck) if f.startswith("cell_")]
        assert cells
        path = os.path.join(ck, cells[0])
        with open(path, "wb") as f:
            f.write(b"not a checksummed pickle")
        healed = run_capacity_sweep(**kwargs)
        assert not any(c.resumed for c in healed.cells)
        assert healed.ok

    def test_report_renders_and_serializes(self, tmp_path):
        report = run_capacity_sweep(**self.sweep_kwargs(tmp_path))
        text = report.render_text()
        assert "frontier" in text
        assert "knee recommendation" in text
        assert "phase accounting" in text
        assert "violation" in text
        doc = json.loads(report.to_json())
        assert doc["knee"] == "w1_bw0_q4_rps6"
        assert doc["phase_violations"] == 0
        assert doc["surveyed_requests"] > 0


class TestCLI:
    def run_cli(self, argv):
        from repro.cli import main

        lines = []
        code = main(argv, out=lines.append)
        return code, "\n".join(str(ln) for ln in lines)

    def test_pareto(self, tmp_path):
        led = str(tmp_path / "cap.jsonl")
        argv = ["pareto", "--workers", "1", "--batch-windows", "0",
                "--queue-depths", "4", "--rps", "6", "--duration", "0.3",
                "--size", "8", "--seed", "7",
                "--checkpoint-dir", str(tmp_path / "ck"), "--ledger", led]
        code, text = self.run_cli(argv)
        assert code == 0, text
        assert "knee recommendation" in text
        assert "0 violation(s)" in text
        # Resumed re-run still exits 0 and says so.
        code, text = self.run_cli(argv)
        assert code == 0
        assert "(resumed)" in text
