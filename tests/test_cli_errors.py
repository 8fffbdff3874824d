"""CLI hardening contract, via real subprocesses.

Every verb must exit 2 with a one-line ``error[<code>]: ...`` on bad
input or corrupt artifacts — never a traceback.  Subprocess tests (not
``main()`` calls) so the contract covers the actual entry point.
"""

import json
import os
import subprocess
import sys

import pytest

from tests.conftest import UNREDUCED, unreduced

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src")


def run_cli(*argv, cwd=None, env_extra=None):
    env = dict(os.environ, PYTHONPATH=SRC, REPRO_CACHE="0")
    env.update(env_extra or {})
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        capture_output=True, text=True, env=env, cwd=cwd or REPO,
        timeout=300,
    )


def assert_typed_failure(result, code):
    assert result.returncode == 2, (result.stdout, result.stderr)
    assert "Traceback" not in result.stderr and "Traceback" not in result.stdout
    line = result.stderr.strip()
    assert "\n" not in line, f"multi-line error: {line!r}"
    assert line.startswith(f"error[{code}]:"), line


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    out = tmp_path_factory.mktemp("artifacts")
    result = run_cli("prove", "--exponent", "4", "--out", str(out))
    assert result.returncode == 0, result.stderr
    return out


class TestVerifyVerb:
    def test_roundtrip_accepts(self, artifacts):
        result = run_cli("verify", str(artifacts))
        assert result.returncode == 0
        assert "accepted: True" in result.stdout

    def test_corrupt_proof_is_typed(self, artifacts, tmp_path):
        for name in ("proof.bin", "vk.bin", "publics.json"):
            data = (artifacts / name).read_bytes()
            (tmp_path / name).write_bytes(data)
        blob = bytearray((tmp_path / "proof.bin").read_bytes())
        blob[9] ^= 0xFF  # inside proof.a
        (tmp_path / "proof.bin").write_bytes(bytes(blob))
        assert_typed_failure(run_cli("verify", str(tmp_path)), "corrupt")

    def test_truncated_vk_is_typed(self, artifacts, tmp_path):
        for name in ("proof.bin", "vk.bin", "publics.json"):
            (tmp_path / name).write_bytes((artifacts / name).read_bytes())
        blob = (tmp_path / "vk.bin").read_bytes()
        (tmp_path / "vk.bin").write_bytes(blob[: len(blob) // 2])
        assert_typed_failure(run_cli("verify", str(tmp_path)), "corrupt")

    def test_garbage_publics_is_typed(self, artifacts, tmp_path):
        for name in ("proof.bin", "vk.bin"):
            (tmp_path / name).write_bytes((artifacts / name).read_bytes())
        (tmp_path / "publics.json").write_text("not json {")
        assert_typed_failure(run_cli("verify", str(tmp_path)), "corrupt")

    def test_non_integer_publics_is_typed(self, artifacts, tmp_path):
        for name in ("proof.bin", "vk.bin"):
            (tmp_path / name).write_bytes((artifacts / name).read_bytes())
        (tmp_path / "publics.json").write_text(json.dumps(["zero"]))
        assert_typed_failure(run_cli("verify", str(tmp_path)), "corrupt")

    @pytest.mark.parametrize("how", UNREDUCED)
    def test_unreduced_publics_are_typed(self, artifacts, tmp_path, how):
        from repro.curves import BN128

        for name in ("proof.bin", "vk.bin"):
            (tmp_path / name).write_bytes((artifacts / name).read_bytes())
        publics = json.loads((artifacts / "publics.json").read_text())
        (tmp_path / "publics.json").write_text(
            json.dumps(unreduced(publics, BN128.fr.modulus, how)))
        result = run_cli("verify", str(tmp_path))
        assert_typed_failure(result, "value")
        assert "not a reduced" in result.stderr

    def test_missing_dir_is_typed_os_error(self, tmp_path):
        assert_typed_failure(
            run_cli("verify", str(tmp_path / "nowhere")), "os")


class TestArgumentErrors:
    def test_unknown_verb_is_usage_error(self):
        result = run_cli("frobnicate")
        assert result.returncode == 2
        assert "Traceback" not in result.stderr

    def test_run_bad_size_is_typed(self):
        result = run_cli("run", "fig4", "--size", "0", "--curve", "bn128")
        assert result.returncode == 2
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("argv", [
        ("profile", "--size", "-3"),
        ("profile", "--workload", "nope"),
        ("deep-profile", "--workload", "nope"),
        ("prove", "--exponent", "0"),
    ])
    def test_bad_cell_rejected_at_parse_time_on_stderr(self, argv):
        result = run_cli(*argv)
        assert result.returncode == 2
        assert result.stdout == ""
        assert "Traceback" not in result.stderr
        assert "error: argument" in result.stderr

    def test_run_rejects_a_bad_workload_before_announcing_the_sweep(self):
        result = run_cli("run", "fig4", "--workload", "nope")
        assert result.returncode == 2
        assert "profiling sweep" not in result.stdout
        assert "unknown workload 'nope'" in result.stderr

    @pytest.mark.parametrize("gone", [
        ("sweep",), ("report", "--compare-model"),
        ("profile", "--no-ledger"), ("profile", "--worker-trace", "w.json"),
        ("parallel-report", "--worker-trace", "w.json"),
        ("pareto",), ("chaos", "--under-load"), ("chaos", "--rps", "8"),
        ("loadtest", "--under-load"), ("loadtest", "--queue-depths", "4"),
        ("loadtest", "--batch-windows", "0"),
        ("loadtest", "--checkpoint-dir", "ckpt"), ("loadtest", "--fresh"),
        ("loadtest", "--rps", "4,8"), ("chaos", "--duration", "1"),
        ("chaos", "--bad-verify-pct", "10"),
        ("parallel-report",), ("run", "fig4", "--curves", "bn128"),
        ("run", "fig4", "--sizes", "8"), ("report", "--curves", "bn128"),
        ("report", "--sizes", "64"), ("lint", "--strict"),
        ("lint", "--suppress", "ZK403"), ("lint", "--baseline", "b.json"),
        ("lint", "--write-baseline", "b.json"), ("codelint", "--root", "src"),
        ("codelint", "--checks", "errors"), ("codelint", "--all-modules"),
        ("codelint", "--hot-modules", "repro.msm.*"),
        ("prove", "--x", "5"), ("run", "fig6", "--measured", "--repeats", "2"),
        ("serve",), ("serve", "--max-queue", "4"),
        ("loadtest", "--max-inflight", "8"),
        ("loadtest", "--bad-verify-pct", "10"), ("report",),
        ("chaos",), ("chaos", "--seed", "0", "--faults", "4"),
        ("loadtest", "--faults", "1"), ("loadtest", "--max-attempts", "3"),
    ])
    def test_deleted_verb_and_flags_are_usage_errors(self, gone):
        result = run_cli(*gone)
        assert result.returncode == 2
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("argv", [
        ("lint", "--circuit", "nope"),
        ("run", "table5", "--measured"),
        ("run", "fig6", "--measured", "--workers", "1"),
        ("run", "fig6", "--measured", "--curve", "bn128,bls12_381"),
    ])
    def test_bad_value_is_one_typed_line(self, argv):
        result = run_cli(*argv)
        assert_typed_failure(result, "value")
        assert result.stdout == ""

    def test_bad_curve_rejected(self):
        result = run_cli("prove", "--curve", "ed25519")
        assert result.returncode == 2
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("bad", ["0", "-2", "2.5", "two"])
    def test_workers_flag_rejected_at_parse_time(self, bad):
        result = run_cli("prove", "--exponent", "4", "--workers", bad)
        assert result.returncode == 2
        assert "Traceback" not in result.stderr
        assert "positive integer" in result.stderr

    @pytest.mark.parametrize("bad", ["0,2", "1,nope", ""])
    def test_worker_list_flag_rejected_at_parse_time(self, bad):
        result = run_cli("run", "fig6", "--workers", bad)
        assert result.returncode == 2
        assert "Traceback" not in result.stderr
        assert "bad worker list" in result.stderr

    @pytest.mark.parametrize("value", ["zero", "0", "-2", "2.5", ""])
    def test_workers_env_is_not_read(self, value, tmp_path):
        # --workers is the one way to set the count: whatever the retired
        # variable holds, the run neither fails on it nor names it.
        result = run_cli("prove", "--exponent", "4", "--out", str(tmp_path),
                         env_extra={"REPRO_WORKERS": value})
        assert result.returncode == 0, (result.stdout, result.stderr)
        assert "REPRO_WORKERS" not in result.stderr


class TestRunResumes:
    def test_rerun_loads_the_cached_cell(self, tmp_path):
        """The profile cache is the resume path: a second ``run`` over the
        same cell leaves the stored cell untouched and prints the same
        counter-based table."""
        args = ("run", "table5", "--curve", "bn128", "--size", "8")
        env = {"REPRO_CACHE": "1", "REPRO_CACHE_DIR": str(tmp_path)}
        first = run_cli(*args, env_extra=env)
        assert first.returncode == 0, (first.stdout, first.stderr)
        (cell,) = tmp_path.glob("profile_*.pkl")
        stored = cell.read_bytes()
        second = run_cli(*args, env_extra=env)
        assert second.returncode == 0
        assert second.stdout == first.stdout
        assert cell.read_bytes() == stored


class TestTimeoutFlag:
    def test_prove_timeout_is_typed(self, tmp_path):
        result = run_cli("prove", "--exponent", "6", "--out", str(tmp_path),
                         "--timeout", "0.000001")
        assert_typed_failure(result, "timeout")

    def test_verify_timeout_is_typed(self, artifacts):
        result = run_cli("verify", str(artifacts), "--timeout", "0.000001")
        assert_typed_failure(result, "timeout")

    def test_run_timeout_is_typed(self):
        result = run_cli("run", "fig4", "--curve", "bn128", "--size", "8",
                         "--timeout", "0.000001")
        assert_typed_failure(result, "timeout")

    @pytest.mark.parametrize("bad", ["0", "-1", "abc"])
    def test_bad_timeout_rejected_at_parse_time(self, bad):
        result = run_cli("prove", "--exponent", "4", "--timeout", bad)
        assert result.returncode == 2
        assert "Traceback" not in result.stderr
        assert "timeout" in result.stderr.lower()

    def test_generous_timeout_still_succeeds(self, tmp_path):
        result = run_cli("prove", "--exponent", "4", "--out", str(tmp_path),
                         "--timeout", "300")
        assert result.returncode == 0, (result.stdout, result.stderr)


class TestLoadtestVerb:
    def test_smoke_run_emits_service_block(self):
        result = run_cli("loadtest", "--rps", "20", "--duration", "0.3",
                         "--size", "8", "--json")
        assert result.returncode == 0, (result.stdout, result.stderr)
        record = json.loads(result.stdout)
        assert record["schema"] == 7
        assert "faults" not in record
        block = record["service"]
        assert block["requests"]["sent"] >= 1
        assert block["requests"]["unresolved"] == 0
        assert "p99" in block["latency_s"]

    def test_text_report_and_ledger_append(self, tmp_path):
        path = tmp_path / "loadtest.jsonl"
        trace = tmp_path / "requests.json"
        result = run_cli("loadtest", "--rps", "10", "--duration", "0.3",
                         "--size", "8", "--ledger", str(path),
                         "--request-trace", str(trace))
        assert result.returncode == 0, (result.stdout, result.stderr)
        assert "throughput" in result.stdout
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 1
        block = json.loads(lines[0])["service"]
        assert block["requests"]["sent"] >= 1
        # The request trace: one named tid lane per traced request.
        events = json.loads(trace.read_text())["traceEvents"]
        lanes = [e["args"]["name"] for e in events
                 if e["name"] == "thread_name" and e["args"]["name"] != "main"]
        assert lanes and all(n.startswith("request ") for n in lanes)
        assert len(lanes) == sum(1 for e in events if "#" in e["name"])

    def test_without_ledger_flag_the_working_directory_stays_empty(
            self, tmp_path):
        result = run_cli("loadtest", "--rps", "10", "--duration", "0.3",
                         "--size", "8", cwd=str(tmp_path))
        assert result.returncode == 0, (result.stdout, result.stderr)
        assert "ledger:" not in result.stdout
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("bad", ["sign", "prove=x", ""])
    def test_bad_mix_rejected_at_parse_time(self, bad):
        result = run_cli("loadtest", "--mix", bad)
        assert result.returncode == 2
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("bad", ["0", "-3"])
    def test_bad_rps_rejected_at_parse_time(self, bad):
        result = run_cli("loadtest", "--rps", bad)
        assert result.returncode == 2
        assert "Traceback" not in result.stderr


class TestLoadtestDrain:
    def test_sigterm_drains_clean(self):
        import signal
        import time

        env = dict(os.environ, PYTHONPATH=SRC, REPRO_CACHE="0",
                   PYTHONUNBUFFERED="1")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "loadtest", "--size", "8",
             "--rps", "10", "--duration", "60"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=env, cwd=REPO)
        try:
            line = proc.stdout.readline()
            assert "serving:" in line, line
            time.sleep(0.5)  # let some traffic flow
            proc.send_signal(signal.SIGTERM)
            stdout, stderr = proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0, (line, stdout, stderr)
        assert "draining:" in stdout
        assert "drained clean:" in stdout
        assert "Traceback" not in stderr
