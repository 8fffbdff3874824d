"""CLI contract of ``python -m repro codelint``: exit codes, JSON shape,
baseline workflow, check selection — and the shared renderer path."""

import json
import os

from repro.cli import main

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def run_cli(*argv):
    lines = []
    code = main(list(argv), out=lines.append)
    return code, "\n".join(lines)


class TestExitCodes:
    def test_repo_self_lints_clean_exit_0(self):
        code, text = run_cli("codelint")
        assert code == 0
        assert "0 error(s), 0 warning(s)" in text

    def test_fixtures_exit_1(self):
        code, text = run_cli("codelint", "--root", FIXTURES,
                             "--hot-modules", "rc5_deadline")
        assert code == 1
        assert "RC101" in text and "RC501" in text

    def test_single_fixture_file(self):
        path = os.path.join(FIXTURES, "rc1_worker.py")
        code, text = run_cli("codelint", "--root", path)
        assert code == 1
        assert "RC103" in text


class TestCheckSelection:
    def test_checks_flag_limits_families(self):
        code, text = run_cli("codelint", "--root", FIXTURES,
                             "--checks", "errors")
        assert code == 1
        assert "RC301" in text and "RC101" not in text

    def test_unknown_check_is_a_usage_error(self):
        code, _ = run_cli("codelint", "--checks", "nonsense")
        assert code == 2  # ValueError -> typed one-liner, exit 2

    def test_suppress_flag_drops_codes(self):
        code, text = run_cli("codelint", "--root", FIXTURES,
                             "--checks", "errors", "--suppress",
                             "RC301,RC302")
        assert code == 0
        assert "RC301" not in text


class TestJson:
    def test_json_payload_shape(self):
        code, text = run_cli("codelint", "--root", FIXTURES,
                             "--hot-modules", "rc5_deadline", "--json")
        assert code == 1
        payload = json.loads(text)
        by_name = {r["circuit"]: r for r in payload["reports"]}
        diag = by_name["rc3_errors"]["diagnostics"][0]
        assert diag["code"] == "RC301"
        assert diag["line"] > 0
        assert diag["symbol"].startswith("rc3_errors.")


class TestBaseline:
    def test_baseline_roundtrip(self, tmp_path):
        base = str(tmp_path / "codelint-baseline.json")
        code, text = run_cli("codelint", "--root", FIXTURES,
                             "--hot-modules", "rc5_deadline",
                             "--write-baseline", base)
        assert code == 0
        assert "fingerprint(s)" in text
        # Every previously-seen finding is filtered: gate passes.
        code, _ = run_cli("codelint", "--root", FIXTURES,
                          "--hot-modules", "rc5_deadline",
                          "--baseline", base)
        assert code == 0

    def test_new_finding_escapes_the_baseline(self, tmp_path):
        base = str(tmp_path / "codelint-baseline.json")
        run_cli("codelint", "--root", FIXTURES, "--checks", "worker",
                "--write-baseline", base)
        code, text = run_cli("codelint", "--root", FIXTURES,
                             "--checks", "worker,errors",
                             "--baseline", base)
        assert code == 1
        assert "RC301" in text and "RC103" not in text


class TestSharedRenderer:
    def test_lint_and_codelint_share_the_renderer(self):
        # Both verbs end in analyze.render_reports; the totals line differs
        # only in the configured noun.
        _, lint_text = run_cli("lint", "--circuit", "range")
        _, code_text = run_cli("codelint")
        assert "circuit(s) analyzed:" in lint_text
        assert "module(s) analyzed:" in code_text

    def test_clean_modules_elided_unless_asked(self):
        _, brief = run_cli("codelint")
        _, full = run_cli("codelint", "--all-modules")
        assert len(full.splitlines()) > len(brief.splitlines())
        assert "repro.workflow" in full
