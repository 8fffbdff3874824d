"""Harness tests: circuit generators, profile runner/cache, report rendering,
and the experiment reducers on a miniature sweep."""

import json
import os
import subprocess
import sys

import pytest

from repro.circuit import compile_circuit
from repro.curves import BN128
from repro.groth16 import generate_witness
from repro.harness import circuits, experiments, report
from repro.harness.runner import profile_run, profile_sweep
from repro.workflow import STAGES


class TestCircuitGenerators:
    def test_exponentiate_sizes(self):
        b, inputs = circuits.build_exponentiate(BN128, 12)
        circ = compile_circuit(b)
        assert circ.n_constraints == 12
        assert "x" in inputs

    def test_exponentiate_rejects_zero(self):
        with pytest.raises(ValueError):
            circuits.build_exponentiate(BN128, 0)

    @pytest.mark.parametrize("size", [128, 512, 2048])
    def test_range_batch_lands_near_the_size_asked(self, size):
        # Whole checks of 19 constraints: to the nearest check, so within
        # 10 % from 2^7 up.
        b, inputs = circuits.build_range_batch(BN128, size)
        circ = compile_circuit(b)
        assert abs(circ.n_constraints - size) <= 0.1 * size
        assert circ.r1cs.is_satisfied(generate_witness(circ, inputs))

    def test_hash_preimage_shape(self):
        b, inputs = circuits.build_hash_preimage(BN128, chain_length=3)
        assert len(inputs) == 3
        circ = compile_circuit(b)
        assert "digest" in circ.output_wires

    def test_range_proof_has_public_bound(self):
        b, inputs = circuits.build_range_proof(BN128, n_bits=8, value=5, bound=10)
        circ = compile_circuit(b)
        assert circ.input_wires["bound"] in circ.r1cs.public_wires

    def test_dot_product_shape(self):
        b, inputs = circuits.build_dot_product(BN128, length=4)
        assert len(inputs) == 8


class TestReport:
    def test_render_table_alignment(self):
        out = report.render_table(["a", "bb"], [[1, 2.5], [10, 3.25]], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "2.50" in out and "3.25" in out
        # All data rows share the same width.
        assert len(set(len(l) for l in lines[2:])) == 1

    def test_format_value(self):
        assert report.format_value(1.234, ".1f") == "1.2"
        assert report.format_value("x") == "x"
        assert report.format_value(7) == "7"


@pytest.fixture(scope="module")
def mini_sweep():
    """A tiny but structurally complete sweep (2 curves x 2 sizes)."""
    return profile_sweep(curve_names=("bn128", "bls12_381"), sizes=(16, 32))


class TestRunner:
    def test_profiles_for_every_stage(self, mini_sweep):
        for profs in mini_sweep.values():
            assert set(profs) == set(STAGES)

    def test_memoized_across_calls(self, mini_sweep):
        again = profile_run("bn128", 16)
        assert again is mini_sweep[("bn128", 16)]

    def test_disk_cache_roundtrip(self, mini_sweep, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        from repro.harness import runner

        runner._MEMO.clear()
        first = profile_run("bn128", 16)
        assert any(f.endswith(".pkl") for f in os.listdir(tmp_path))
        runner._MEMO.clear()
        second = profile_run("bn128", 16)
        assert second is not first
        assert second["setup"].instructions == first["setup"].instructions

    def test_cache_traffic_metered(self, tmp_path, monkeypatch):
        """Memo hits, disk hits and misses are counted when a metrics
        registry is active, so stale-cache confusion is diagnosable."""
        from repro.harness import runner
        from repro.obs import metrics

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        runner._MEMO.clear()
        with metrics.collecting() as reg:
            profile_run("bn128", 16)   # cold: miss
            profile_run("bn128", 16)   # warm: memo hit
            runner._MEMO.clear()
            profile_run("bn128", 16)   # memo cleared: disk hit
        assert reg.counter("repro_harness_cache_misses_total") == 1
        assert reg.counter("repro_harness_cache_memo_hits_total") == 1
        assert reg.counter("repro_harness_cache_disk_hits_total") == 1

    def test_traced_counts_ignore_process_history(self):
        # Nothing a traced stage counts may be derived lazily under
        # whichever tracer gets there first: the cache key cannot see
        # what the process ran before the profile.
        cold = _profile_in_fresh_process(untraced_workflow_first=False)
        warm = _profile_in_fresh_process(untraced_workflow_first=True)
        assert cold == warm


_HISTORY_SCRIPT = """
import json, sys
from repro.curves import get_curve
from repro.harness.circuits import build_workload
from repro.harness.runner import profile_run
from repro.workflow import Workflow

curves = ("bn128", "bls12_381")
if sys.argv[1] == "warm":
    for name in curves:
        curve = get_curve(name)
        builder, inputs = build_workload("exponentiate", curve, 8)
        with Workflow(curve, builder, inputs, seed=0) as wf:
            wf.run_all()
print(json.dumps({
    name: {stage: [p.loads, p.stores, p.instructions]
           for stage, p in profile_run(name, 8).items()}
    for name in curves}))
"""


def _profile_in_fresh_process(untraced_workflow_first):
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    result = subprocess.run(
        [sys.executable, "-c", _HISTORY_SCRIPT,
         "warm" if untraced_workflow_first else "cold"],
        capture_output=True, text=True, timeout=300,
        env=dict(os.environ, PYTHONPATH=os.path.abspath(src), REPRO_CACHE="0"))
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


class TestExperimentsOnMiniSweep:
    def test_exec_time_breakdown(self, mini_sweep):
        # The setup-dominates ordering needs realistic sizes and is asserted
        # by the benchmark (E0); on this tiny sweep check consistency only.
        res = experiments.exec_time_breakdown(mini_sweep)
        shares = res.extras["shares"]
        assert sum(shares.values()) == pytest.approx(100.0)
        assert shares["setup"] > shares["proving"]
        assert "setup" in res.render()

    def test_fig4_rows_complete(self, mini_sweep):
        res = experiments.fig4_topdown(mini_sweep)
        # 5 stages x 3 CPUs x 2 curves x 2 sizes.
        assert len(res.rows) == 5 * 3 * 2 * 2
        assert set(res.extras["majority"]) == {
            (stage, cpu) for stage in STAGES for cpu in ("i7", "i5", "i9")
        }

    def test_fig5_loads_stores(self, mini_sweep):
        res = experiments.fig5_loads_stores(mini_sweep)
        loads = res.extras["loads"]
        assert loads[("setup", 32)] > loads[("witness", 32)]

    def test_table2_grid(self, mini_sweep):
        res = experiments.table2_mpki(mini_sweep)
        assert len(res.rows) == 5
        assert len(res.rows[0]) == 7  # stage + 6 cpu/curve columns

    def test_table3_bandwidth(self, mini_sweep):
        res = experiments.table3_bandwidth(mini_sweep)
        bw = res.extras["bandwidth"]
        assert all(v >= 0 for v in bw.values())
        assert len(res.rows) == 2

    def test_table4_functions(self, mini_sweep):
        res = experiments.table4_functions(mini_sweep)
        shares = res.extras["shares"]
        assert shares["setup"]["bigint"] > 0.5

    def test_table5_mix(self, mini_sweep):
        res = experiments.table5_opcode_mix(mini_sweep)
        for triple in res.extras["mix"].values():
            assert sum(triple) == pytest.approx(100.0, abs=0.5)

    def test_fig6_strong_scaling(self, mini_sweep):
        res = experiments.fig6_strong_scaling(mini_sweep)
        sp = res.extras["speedups"]
        assert sp[("proving", 32)][1] == pytest.approx(1.0)

    def test_fig7_weak_scaling(self, mini_sweep):
        res = experiments.fig7_weak_scaling(mini_sweep)
        sp = res.extras["speedups"]
        assert sp["verifying"][2] > 1.5  # near-linear for constant-work stage

    def test_table6_fits_in_range(self, mini_sweep):
        res = experiments.table6_parallelism(mini_sweep)
        for fit in res.extras["fits"].values():
            for key, val in fit.items():
                assert 0.0 <= val <= 100.0, (key, val)
