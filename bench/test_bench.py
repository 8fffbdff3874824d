"""Checks of the benchmark harness itself (not part of tier-1).

    python -m pytest bench/ -q

The workloads run in process on tiny circuits (``make_workload(size=...)``);
one subprocess run of the quickest workload checks the command itself.  The
whole file takes about a minute.
"""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import compare  # noqa: E402
import layers  # noqa: E402
import loadgen  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def schema():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


# -- BENCHMARK.json --------------------------------------------------------------------


def test_benchmark_json_keeps_to_the_contract(schema):
    assert set(schema) == {"command", "paths", "run_seconds", "workloads",
                           "end_to_end", "per_layer"}
    assert schema["paths"] == ["bench"]
    name_re = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
    unit_re = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
    names = ([w["name"] for w in schema["workloads"]]
             + [m["name"] for m in schema["end_to_end"] + schema["per_layer"]])
    assert len(names) == len(set(names))
    assert all(name_re.fullmatch(n) for n in names)
    assert all(unit_re.fullmatch(m["unit"])
               for m in schema["end_to_end"] + schema["per_layer"])
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200
               for w in schema["workloads"])
    assert all(set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
               for m in schema["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"} for m in schema["per_layer"])
    assert 2 <= len(schema["workloads"]) <= 8
    assert len(schema["per_layer"]) <= 128
    setup = [m for m in schema["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in schema["end_to_end"])}]
    assert 1 <= schema["run_seconds"] <= 60


def test_workload_names_match_what_the_code_runs(schema):
    assert [w["name"] for w in schema["workloads"]] == list(workloads.WORKLOADS)


def _check_printed(schema, trace, lines):
    """The contract of one run's standard output, given as lines."""
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = schema["per_layer"] if trace else schema["end_to_end"]
    assert {n: v["unit"] for n, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    # every metric is also printed by name with its unit
    for m in wanted:
        assert any(m["name"] in line and line.rstrip().split("#")[0].split()[-1] == m["unit"]
                   for line in lines[:-1]), m["name"]


@pytest.mark.parametrize("name,trace", [
    ("prove-bn128-2048", 0), ("prove-bn128-2048", 1),
    ("pool-bls12_381-1024-w2", 1), ("verify-bls12_381-64", 1), ("serve-bn128-64", 1)])
def test_a_run_emits_the_names_of_benchmark_json(schema, capsys, name, trace):
    workload = workloads.make_workload(name, seed=5, size=16)
    if trace:
        out = layers.run_traced(workload, 1.0)
    else:
        out = workloads.run_untraced(workload, 1.0, time.perf_counter())
    args = argparse.Namespace(seed=5, seconds=1.0, trace=trace)
    # report() refuses a name that BENCHMARK.json does not have
    run.report(args, schema, workload.spec, out)
    _check_printed(schema, trace, capsys.readouterr().out.strip().splitlines())


def test_the_command_prints_the_contracts_last_line(schema):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "serve-bn128-64",
         "--seed", "5", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    _check_printed(schema, 0, proc.stdout.strip().splitlines())


def test_no_result_where_there_is_nothing_to_measure(tmp_path):
    (tmp_path / "bench").mkdir()
    for f in BENCH.glob("*.py"):
        (tmp_path / "bench" / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "prove-bn128-2048",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0 and proc.stdout == ""


# -- tracing ---------------------------------------------------------------------------


def _span(id, parent, layer, name, start, end, count=0):
    return tracing.Span(id, parent, layer, name, start, end, count)


def test_self_time_is_duration_minus_direct_children():
    spans = [
        _span(1, None, "groth16", "prove", 0.0, 10.0),
        _span(2, 1, "qap", "compute_h", 1.0, 5.0),
        _span(3, 2, "poly", "intt", 1.5, 2.5),
        _span(4, 2, "poly", "intt", 3.0, 4.5),
        _span(5, 1, "msm", "g1", 5.0, 9.0, count=100),
        _span(6, None, "groth16", "verify", 10.0, 12.0),
        _span(7, 6, "curves", "miller_loop", 10.5, 11.5),
    ]
    whole = tracing.self_times(spans)
    assert whole[("groth16", "prove")] == [1, pytest.approx(2.0), 0]
    assert whole[("qap", "compute_h")] == [1, pytest.approx(1.5), 0]
    assert whole[("poly", "intt")] == [2, pytest.approx(2.5), 0]
    assert whole[("msm", "g1")] == [1, pytest.approx(4.0), 100]
    # self times partition the roots' wall
    assert sum(row[1] for row in whole.values()) == pytest.approx(12.0)
    under = tracing.self_times(spans, under=("groth16", "prove"))
    assert ("curves", "miller_loop") not in under
    assert sum(row[1] for row in under.values()) == pytest.approx(10.0)


def test_recorder_nests_spans_per_thread():
    rec = tracing.Recorder()
    with rec.span("a", "outer"):
        with rec.span("b", "inner", count=3):
            pass
    inner, outer = rec.spans
    assert (inner.parent, outer.parent, inner.count) == (outer.id, None, 3)
    assert outer.start <= inner.start <= inner.end <= outer.end


def test_install_and_remove_leave_every_attribute_identical():
    before = [(t, vars(tracing._resolve(t.owner))[t.attr]) for t in tracing.TARGETS]
    rec = tracing.Recorder()
    with tracing.installed(rec):
        for target, original in before:
            assert vars(tracing._resolve(target.owner))[target.attr] is not original
        from repro.curves import get_curve
        from repro.msm.fixed_base import FixedBaseTable

        table = FixedBaseTable(get_curve("bn128").g1.generator, width=2)
        table.mul_many([3, 5, 7])
    for target, original in before:
        assert vars(tracing._resolve(target.owner))[target.attr] is original
    # mul under mul_many collapsed into its parent: two spans, not five
    assert [(s.name, s.count) for s in rec.spans] == \
        [("fixed_base.g1", 0), ("fixed_base.g1", 3)]


def _mul_is_wrapped(_payload):
    from repro.msm.fixed_base import FixedBaseTable

    return hasattr(FixedBaseTable.mul, "__wrapped__")


def test_pool_workers_keep_the_programs_own_functions():
    from repro.parallel import tasks

    workload = workloads.make_workload("pool-bls12_381-1024-w2", seed=3, size=8)
    tasks.TASKS["bench_probe"] = _mul_is_wrapped
    try:
        workload.start_pool()
        with tracing.installed(tracing.Recorder()):
            workload.prepare()
            assert _mul_is_wrapped(None)
            seen, _fired = workload.pool.map("bench_probe", [{}] * 4)
    finally:
        del tasks.TASKS["bench_probe"]
        workload.close()
    assert seen == [False] * 4


# -- stats -----------------------------------------------------------------------------


def test_percentile_is_nearest_rank_and_needs_ten_samples_beyond():
    values = list(range(1, 101))
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 90) == 90
    assert stats.percentile([7.0], 99) == 7.0
    assert stats.percentile([1, 2, 3, 4, 5, 6, 7, 8, 9], 75) == 7
    assert stats.highest_supported(99) is None
    assert stats.highest_supported(100) == 90
    assert stats.highest_supported(200) == 95
    assert stats.highest_supported(1000) == 99
    assert stats.quartiles([5.0]) == (5.0, 5.0, 5.0)
    assert stats.spread_share([10, 10, 10, 10]) == 0.0


# -- compare ---------------------------------------------------------------------------


def _result(schema, scale=1.0, jitter=0.0, runs=5):
    def run(k):
        factor = scale * (1 + jitter * (k - runs // 2))
        return {"attempted": 10, "failed": 0, "correct": True,
                "detail": {"slo_miss_share": 0.0},
                "metrics": {m["name"]: {"value": factor * 2.0, "unit": m["unit"]}
                            for m in schema["end_to_end"]}}
    traced = {"attempted": 5, "failed": 0, "correct": True, "metrics": {
        m["name"]: {"value": scale, "unit": m["unit"]} for m in schema["per_layer"]}}
    return {"meta": {"fingerprint_id": "x", "seed": 0, "seconds": 1, "runs": runs},
            "workloads": {w["name"]: {"runs": [run(k) for k in range(runs)],
                                      "traced": traced}
                          for w in schema["workloads"]}}


def test_compare_verdicts(schema):
    lines = []
    assert compare.compare(_result(schema), _result(schema), schema, lines.append) == 0
    rows = [line for line in lines if line.endswith("ok") or "  ok  " in line]
    # per workload: the end-to-end metrics and fail_share, plus the headlines
    n_cells = (len(schema["workloads"]) * (len(schema["end_to_end"]) + 1)
               + len(compare.HEADLINES))
    assert len(rows) == n_cells
    assert {name for _, name, *_ in compare.HEADLINES} == \
        {"pool_speedup", "serve_goodput_rps", "slo_miss_share"}

    # everything 30 % slower: every timing is worse and so is the goodput;
    # the speedup (a ratio of two of them) and the miss share are unchanged
    lines.clear()
    assert compare.compare(_result(schema), _result(schema, scale=1.3), schema,
                           lines.append) == 1
    assert sum("  worse" in line for line in lines) == \
        len(schema["workloads"]) * len(schema["end_to_end"]) + 1
    assert any("serve_goodput_rps" in line and "  worse" in line for line in lines)
    assert any("per-layer" in line for line in lines)
    assert any("+30.0%" in line for line in lines)

    assert compare.verdict([1.0] * 5, [1.04] * 5, "lower", 0.1) == ("ok", pytest.approx(1.04))
    wide = [0.7, 0.9, 1.0, 1.1, 1.3]
    assert compare.verdict(wide, wide, "lower", 0.1)[0] == "unresolved"
    assert compare.verdict(wide, [0.5, 0.6, 0.55], "lower", 0.1)[0] == "ok"
    assert compare.verdict([5.0] * 3, [4.0] * 3, "higher", 0.1)[0] == "worse"
    # an absolute bound: the share may rise by 0.05, whatever it was
    assert compare.verdict([0.0] * 3, [0.04] * 3, "lower", 0.05, absolute=True) == \
        ("ok", pytest.approx(0.04))
    assert compare.verdict([0.0] * 3, [0.1] * 3, "lower", 0.05, absolute=True)[0] == "worse"


# -- workloads -------------------------------------------------------------------------


def test_request_kinds_hold_the_mix_and_are_seeded():
    kinds = loadgen.kinds_for(3, "paced", 30)
    assert (kinds.count("prove"), kinds.count("verify")) == (10, 20)
    assert all(sorted(kinds[i:i + 3]) == sorted(loadgen.BLOCK) for i in range(0, 30, 3))
    assert kinds == loadgen.kinds_for(3, "paced", 30)
    assert kinds != loadgen.kinds_for(4, "paced", 30)
    assert len(loadgen.kinds_for(3, "paced", 7)) == 7


def test_a_bad_proof_counts_as_failed():
    workload = workloads.make_workload("prove-bn128-2048", seed=1, size=8)
    workload.prepare()
    out = workloads.Outcome()
    workload.round(0, out)
    assert (out.attempted, out.failed, out.correct) == (1, 0, True)
    # the verifier is handed the wrong statement: the check must fire
    workload.publics = workload.bad_publics
    workload.round(1, out)
    assert (out.attempted, out.failed, out.correct) == (2, 1, False)
    assert out.failures == ["proof 1 accepted"]


def test_mutated_proof_and_poisoned_batch_are_rejected():
    workload = workloads.make_workload("verify-bls12_381-64", seed=2, size=8)
    workload.prepare()
    out = workloads.Outcome()
    workload.final_checks(out)
    assert (out.attempted, out.failed) == (3, 0)


def test_a_pause_is_not_a_bookkeeping_fault_but_a_lost_phase_is():
    from repro.serve.jobs import PHASES, JobResult

    def sample(phases, total):
        result = JobResult(request_id=1, kind="verify", status="ok", accepted=True,
                           total_s=total, phases=dict(zip(PHASES, phases)))
        return loadgen.Sample(kind="verify", due=0.0, result=result)

    workload = workloads.make_workload("serve-bn128-64", seed=1, size=8)
    out = workloads.Outcome()
    # 4 ms between the service's total_s stamp and its closing the phase clock
    workload.judge(out, "paced", [sample((0.0, 0.001, 0.003, 0.0, 0.25, 0.004), 0.254)])
    assert (out.attempted, out.failed) == (1, 0)
    assert out.detail["phase_error_max_s"] == pytest.approx(0.004)
    # the compute phase never marked
    workload.judge(out, "paced", [sample((0.0, 0.001, 0.003, 0.0, 0.0, 0.0), 0.254)])
    assert (out.attempted, out.failed) == (2, 1)
