"""Smoke tests: every example script runs to completion on small inputs.

``scalability_report`` is exercised by the benchmark suite instead (it
drives the full default sweep).
"""

import sys

import pytest


@pytest.fixture
def argv(monkeypatch):
    def _set(*args):
        monkeypatch.setattr(sys, "argv", ["example"] + [str(a) for a in args])

    return _set


def _load(name):
    import importlib.util
    import os

    path = os.path.join(os.path.dirname(__file__), "..", "examples", f"{name}.py")
    spec = importlib.util.spec_from_file_location(f"example_{name}", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_quickstart(argv, capsys):
    argv(4)
    _load("quickstart").main()
    out = capsys.readouterr().out
    assert "ACCEPT" in out and "soundness" in out


def test_compare_cpus(argv, capsys):
    argv(64)
    _load("compare_cpus").main()
    out = capsys.readouterr().out
    assert "Key Takeaway 1" in out
    assert "compile" in out


def test_characterize_stage(argv, capsys):
    argv("verifying", 64)
    _load("characterize_stage").main()
    out = capsys.readouterr().out
    assert "Top-down analysis" in out
    assert "Amdahl fit" in out


def test_characterize_stage_rejects_bad_stage(argv):
    argv("nonsense", 64)
    with pytest.raises(SystemExit):
        _load("characterize_stage").main()


def test_custom_circuit(argv, capsys):
    argv()
    _load("custom_circuit").main()
    out = capsys.readouterr().out
    assert "under-age witness rejected" in out
    assert "proving-stage characterization" in out


def test_compare_schemes(argv, capsys):
    argv(8)
    _load("compare_schemes").main()
    out = capsys.readouterr().out
    assert "Groth16" in out and "PLONK" in out


def test_export_trace(argv, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv("witness", 32)
    _load("export_trace").main()
    out = capsys.readouterr().out
    assert "busiest regions" in out
    assert (tmp_path / "results" / "witness_trace.json").exists()
    assert (tmp_path / "results" / "witness_counters.csv").exists()
