"""CLI contract of ``python -m repro codelint``: exit codes, JSON shape
and the shared renderer path."""

import json
import os

import pytest

from repro.analyze.code import analyzer
from repro.cli import main

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def run_cli(*argv):
    lines = []
    code = main(list(argv), out=lines.append)
    return code, "\n".join(lines)


@pytest.fixture
def analyzed_root(monkeypatch):
    """Point the bare ``repro codelint`` at another source tree."""
    def point(path):
        monkeypatch.setattr(analyzer, "default_root", lambda: path)
    return point


class TestExitCodes:
    def test_repo_self_lints_clean_exit_0(self):
        code, text = run_cli("codelint")
        assert code == 0
        assert "0 error(s), 0 warning(s)" in text

    def test_fixtures_exit_1(self, analyzed_root):
        analyzed_root(FIXTURES)
        code, text = run_cli("codelint")
        assert code == 1
        assert "RC101" in text and "RC301" in text

    def test_single_fixture_file(self, analyzed_root):
        analyzed_root(os.path.join(FIXTURES, "rc1_worker.py"))
        code, text = run_cli("codelint")
        assert code == 1
        assert "RC103" in text


class TestJson:
    def test_json_payload_shape(self, analyzed_root):
        analyzed_root(FIXTURES)
        code, text = run_cli("codelint", "--json")
        assert code == 1
        payload = json.loads(text)
        by_name = {r["circuit"]: r for r in payload["reports"]}
        diag = by_name["rc3_errors"]["diagnostics"][0]
        assert diag["code"] == "RC301"
        assert diag["line"] > 0
        assert diag["symbol"].startswith("rc3_errors.")


class TestSharedRenderer:
    def test_lint_and_codelint_share_the_renderer(self):
        # Both verbs end in analyze.render_reports; the totals line differs
        # only in the configured noun.
        _, lint_text = run_cli("lint", "--circuit", "range")
        _, code_text = run_cli("codelint")
        assert "circuit(s) analyzed:" in lint_text
        assert "module(s) analyzed:" in code_text

    def test_clean_modules_are_elided(self):
        # The repository self-lints clean, so only the totals line is left.
        _, text = run_cli("codelint")
        assert len(text.splitlines()) == 1
        assert "repro.workflow" not in text
