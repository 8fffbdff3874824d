"""Contract of ``python -m tools.codelint``: exit codes and the
findings-then-totals output."""

import os
import subprocess
import sys

import pytest

from tools.codelint import analyzer
from tools.codelint.__main__ import main

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
REPO = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


@pytest.fixture
def run_tool(capsys):
    def run():
        code = main()
        return code, capsys.readouterr().out
    return run


@pytest.fixture
def analyzed_root(monkeypatch):
    """Point the tool at another source tree."""
    def point(path):
        monkeypatch.setattr(analyzer, "default_root", lambda: path)
    return point


class TestExitCodes:
    def test_repo_self_lints_clean_exit_0(self, run_tool):
        code, text = run_tool()
        assert code == 0
        assert "0 error(s), 0 warning(s)" in text

    def test_fixtures_exit_1(self, run_tool, analyzed_root):
        analyzed_root(FIXTURES)
        code, text = run_tool()
        assert code == 1
        assert "RC101" in text and "RC301" in text

    def test_single_fixture_file(self, run_tool, analyzed_root):
        analyzed_root(os.path.join(FIXTURES, "rc1_worker.py"))
        code, text = run_tool()
        assert code == 1
        assert "RC103" in text


    def test_runs_from_the_repo_root_without_the_package(self):
        # CI's invocation: no PYTHONPATH, nothing installed; the tool
        # parses src/repro and never imports it.
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        result = subprocess.run([sys.executable, "-m", "tools.codelint"],
                                cwd=REPO, env=env, capture_output=True,
                                text=True, timeout=120)
        assert result.returncode == 0, result.stdout + result.stderr
        assert result.stdout.splitlines()[-1].endswith(
            "0 error(s), 0 warning(s)")


class TestOutput:
    def test_clean_modules_are_elided(self, run_tool):
        # The repository self-lints clean, so only the totals line is left.
        _, text = run_tool()
        assert len(text.splitlines()) == 1
        assert "module(s) analyzed:" in text
        assert "repro.workflow" not in text
