"""CLI tests for the telemetry verbs: ``repro profile`` and
``deep-profile`` (with its model-drift gate)."""

import json

import pytest

from repro.cli import build_parser, main
from repro.workflow import STAGES
from tests.conftest import read_jsonl


def run_cli(argv):
    lines = []
    code = main(argv, out=lines.append)
    return code, "\n".join(str(line) for line in lines)


class TestProfileParser:
    def test_defaults(self):
        args = build_parser().parse_args(["profile"])
        assert args.curve == "bn128"
        assert args.size == 64
        assert args.workload == "exponentiate"

    def test_rejects_unknown_curve(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["profile", "--curve", "bogus"])


class TestProfileCommand:
    def test_emits_span_tree_and_one_ledger_record(self, tmp_path):
        path = str(tmp_path / "led.jsonl")
        code, out = run_cli(["profile", "--curve", "bn128", "--size", "8",
                             "--ledger", path])
        assert code == 0
        for stage in STAGES:  # the span tree covers all five stages
            assert stage in out
        assert "repro_groth16_prove_total 1" in out
        records = read_jsonl(path)
        assert len(records) == 1
        rec = records[0]
        assert rec["kind"] == "profile"
        assert rec["machine"]["cpu_model"]
        assert "git" in rec
        assert [s["stage"] for s in rec["stages"]] == list(STAGES)
        assert all(s["span"] is not None for s in rec["stages"])

    def test_json_output_is_the_record(self, tmp_path):
        path = tmp_path / "led.jsonl"
        code, out = run_cli(["profile", "--size", "8", "--json",
                             "--ledger", str(path)])
        assert code == 0
        rec = json.loads(out)
        assert read_jsonl(path) == [rec]  # --ledger appends what --json prints
        assert rec["schema"] == 7
        assert rec["metrics"]["counters"]["repro_groth16_verify_total"] == 1
        assert rec["profile"] is None  # plain profile carries no deep block
        # v2 lifts span cpu/rss/gc to the stage record
        for s in rec["stages"]:
            assert "cpu_s" in s and "rss_peak_delta_kb" in s

    def test_without_ledger_flag_nothing_is_written(self, tmp_path,
                                                    monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out = run_cli(["profile", "--size", "8"])
        assert code == 0
        assert "ledger:" not in out
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("bad", [["--workload", "bogus"],
                                     ["--size", "-3"], ["--size", "0"]])
    def test_bad_cell_is_a_parse_time_usage_error(self, bad, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["profile", *bad])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unknown workload" in err or "positive integer" in err

    def test_chrome_and_span_traces_written(self, tmp_path):
        ct = tmp_path / "ct.json"
        st = tmp_path / "st.json"
        code, _ = run_cli(["profile", "--size", "8",
                           "--chrome-trace", str(ct), "--span-trace", str(st)])
        assert code == 0
        modeled = json.loads(ct.read_text())
        assert modeled["otherData"]["roots"] == list(STAGES)
        measured = json.loads(st.read_text())
        names = [e["name"] for e in measured["traceEvents"]]
        for stage in STAGES:
            assert stage in names


def fake_deep_run(monkeypatch, model=None):
    """Patch prof.deep_profile_run with a fast fake: a real DeepProfiler
    fed synthetic per-stage work, plus a workflow carrying StageResults —
    the CLI's downstream handling (record, artifacts, ledger, drift
    verdict) stays real.  The modeled side of the drift gate is *model*,
    or (unset) the fake profile's own blocks, which agree by construction.
    """
    from repro.obs import drift, prof
    from repro.workflow import StageResult

    profiled = []

    def busy():
        return sum(i * i for i in range(200))

    def fake(curve_name, size, workload="exponentiate", seed=0, alloc=True):
        profiler = prof.DeepProfiler()
        results = {}
        for stage in STAGES:
            with profiler.stage(stage):
                busy()
            if alloc:
                with profiler.allocations(stage):
                    busy()
            results[stage] = StageResult(stage=stage, artifact=1,
                                         elapsed=0.001)

        class FakeWorkflow:
            pass

        wf = FakeWorkflow()
        wf.results = results
        wf.accepted = True
        profiled.append(profiler)
        return wf, profiler

    monkeypatch.setattr(prof, "deep_profile_run", fake)
    monkeypatch.setattr(
        drift, "model_reference",
        lambda *a, **kw: model or profiled[-1].measured_blocks())


class TestDeepProfileCommand:
    def test_report_artifacts_and_ledger_record(self, tmp_path, monkeypatch):
        fake_deep_run(monkeypatch)
        monkeypatch.chdir(tmp_path)  # default artifact paths are relative
        led = str(tmp_path / "led.jsonl")
        code, out = run_cli(["deep-profile", "--size", "4", "--ledger", led])
        assert code == 0
        for stage in STAGES:
            assert stage in out
        assert "compute%" in out          # measured opcode table
        assert "family" in out            # hot-function table header
        collapsed = tmp_path / "results" / "prof" / \
            "deep_exponentiate_bn128_4.collapsed.txt"
        speedscope = tmp_path / "results" / "prof" / \
            "deep_exponentiate_bn128_4.speedscope.json"
        assert collapsed.exists() and speedscope.exists()
        # The CLI reports the (relative) artifact paths it wrote.
        assert "deep_exponentiate_bn128_4.collapsed.txt" in out
        assert "deep_exponentiate_bn128_4.speedscope.json" in out
        first = collapsed.read_text().splitlines()[0]
        assert first.startswith("compile;")
        doc = json.loads(speedscope.read_text())
        assert [p["name"] for p in doc["profiles"]] == list(STAGES)
        records = read_jsonl(led)
        assert len(records) == 1
        rec = records[0]
        assert rec["kind"] == "deep-profile"
        assert rec["schema"] == 7
        assert rec["profile"]["profiler"]["backend"] == "sys.setprofile"
        assert set(rec["profile"]["stages"]) == set(STAGES)
        for stage_block in rec["profile"]["stages"].values():
            assert "family_shares" in stage_block
            assert "opcode_shares" in stage_block

    def test_json_output_is_the_record(self, tmp_path, monkeypatch):
        fake_deep_run(monkeypatch)
        monkeypatch.chdir(tmp_path)
        code, out = run_cli(["deep-profile", "--size", "4",
                             "--no-artifacts", "--json"])
        assert code == 0
        rec = json.loads(out)
        assert rec["kind"] == "deep-profile"
        assert rec["profile"] is not None
        assert rec["profile"]["drift"]["ok"] is True
        assert rec["profile"]["drift"]["cell"] == "exponentiate/bn128/4"

    def test_no_artifacts_flag(self, tmp_path, monkeypatch):
        fake_deep_run(monkeypatch)
        monkeypatch.chdir(tmp_path)
        code, _ = run_cli(["deep-profile", "--size", "4",
                           "--no-artifacts"])
        assert code == 0
        assert not (tmp_path / "results").exists()

    def test_explicit_artifact_paths(self, tmp_path, monkeypatch):
        fake_deep_run(monkeypatch)
        c = tmp_path / "x.collapsed"
        s = tmp_path / "x.speedscope.json"
        code, _ = run_cli(["deep-profile", "--size", "4",
                           "--collapsed", str(c), "--speedscope", str(s)])
        assert code == 0
        assert c.exists() and s.exists()

    def test_unknown_workload_is_a_parse_time_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["deep-profile", "--size", "4", "--no-artifacts",
                     "--workload", "bogus"])
        assert exc.value.code == 2
        assert "unknown workload 'bogus'" in capsys.readouterr().err


class TestDeepProfileDrift:
    """The drift gate through ``deep-profile``.  Measurement is stubbed
    (full deep-profiled runs take minutes; CI's drift-smoke job runs one
    for real): the fake profile's measured blocks are replaced by
    :attr:`MEASURED`, and the modeled side is a fixture patched over
    ``drift.model_reference``, proving the gate can pass AND fail."""

    MEASURED = {
        "setup": {"wall_s": 1.0,
                  "family_shares": {"bigint": 0.5, "ec": 0.45, "msm": 0.05},
                  "opcode_shares": {"compute": 6.0, "control": 25.0,
                                    "data": 65.0, "other": 4.0}},
        "proving": {"wall_s": 1.0,
                    "family_shares": {"ec": 0.6, "bigint": 0.35, "msm": 0.05},
                    "opcode_shares": {"compute": 6.0, "control": 25.0,
                                      "data": 65.0, "other": 4.0}},
        "verifying": {"wall_s": 1.0,
                      "family_shares": {"bigint": 0.95, "pairing": 0.05},
                      "opcode_shares": {"compute": 6.0, "control": 25.0,
                                        "data": 65.0, "other": 4.0}},
    }
    GOOD_MODEL = {
        "setup": {"family_shares": {"bigint": 0.97, "ec": 0.02, "msm": 0.01},
                  "opcode_shares": {"compute": 45.0, "control": 20.0,
                                    "data": 35.0, "other": 0.0}},
        "proving": {"family_shares": {"bigint": 0.96, "ec": 0.03,
                                      "msm": 0.01},
                    "opcode_shares": {"compute": 45.0, "control": 20.0,
                                      "data": 35.0, "other": 0.0}},
        "verifying": {"family_shares": {"bigint": 0.98, "pairing": 0.02},
                      "opcode_shares": {"compute": 45.0, "control": 20.0,
                                        "data": 35.0, "other": 0.0}},
    }

    def stub(self, monkeypatch, model):
        from repro.obs import prof

        fake_deep_run(monkeypatch, model)
        monkeypatch.setattr(prof.DeepProfiler, "measured_blocks",
                            lambda _profiler: self.MEASURED)

    def test_agreeing_model_exits_zero(self, monkeypatch):
        self.stub(monkeypatch, self.GOOD_MODEL)
        code, out = run_cli(["deep-profile", "--size", "4", "--no-artifacts"])
        assert code == 0
        # The verdict follows the profile tables.
        assert out.index("compute%") < out.index("drift-check")
        assert "model and measurement agree" in out

    def test_perturbed_model_exits_one(self, monkeypatch, tmp_path):
        """The acceptance fixture: a deliberately wrong model must trip
        the gate, and the record still reaches the ledger."""
        bad = json.loads(json.dumps(self.GOOD_MODEL))
        bad["proving"]["family_shares"] = {"hash": 0.7, "parser": 0.2,
                                           "fft": 0.1}
        bad["proving"]["opcode_shares"] = {"compute": 5.0, "control": 20.0,
                                           "data": 75.0, "other": 0.0}
        self.stub(monkeypatch, bad)
        led = str(tmp_path / "led.jsonl")
        code, out = run_cli(["deep-profile", "--size", "4", "--no-artifacts",
                             "--ledger", led])
        assert code == 1
        assert "MODEL DRIFT detected" in out
        assert read_jsonl(led)[0]["profile"]["drift"]["ok"] is False

    def test_json_record_carries_the_verdict(self, monkeypatch):
        self.stub(monkeypatch, self.GOOD_MODEL)
        code, out = run_cli(["deep-profile", "--size", "64",
                             "--no-artifacts", "--json"])
        assert code == 0
        verdict = json.loads(out)["profile"]["drift"]
        assert verdict["cell"] == "exponentiate/bn128/64"
        assert verdict["ok"] is True
        assert [s["stage"] for s in verdict["stages"]] == [
            "setup", "proving", "verifying"]
