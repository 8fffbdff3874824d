"""Every RC check family fires on its seeded-violation fixture — exact
code at the exact line (located via the ``# -> RCxxx`` markers)."""

import os
from dataclasses import replace

import pytest

from tools.codelint import CodelintConfig, analyze_code

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")

#: hot_modules points RC5xx at the fixture; everything else is default.
CONFIG = replace(CodelintConfig(), hot_modules=("rc5_deadline",))


def marker_lines(module, code):
    """1-based lines in *module*'s fixture tagged ``# -> <code>``."""
    path = os.path.join(FIXTURES, f"{module}.py")
    with open(path) as f:
        return [i for i, line in enumerate(f, start=1)
                if f"-> {code}" in line]


@pytest.fixture(scope="module")
def findings():
    reports = analyze_code(FIXTURES, config=CONFIG)
    out = {}
    for r in reports:
        for f in r.findings:
            out.setdefault((r.module, f.code), []).append(f)
    return out


def lines_of(findings, module, code):
    return sorted(d.line for d in findings.get((module, code), []))


class TestWorkerSafety:
    def test_rc101_non_module_level_task(self, findings):
        assert lines_of(findings, "rc1_worker", "RC101") == \
            marker_lines("rc1_worker", "RC101")

    def test_rc102_bad_signature(self, findings):
        assert marker_lines("rc1_worker", "RC102")[0] in \
            lines_of(findings, "rc1_worker", "RC102")

    def test_rc103_global_write(self, findings):
        assert lines_of(findings, "rc1_worker", "RC103") == \
            marker_lines("rc1_worker", "RC103")

    def test_rc104_mutable_default(self, findings):
        assert lines_of(findings, "rc1_worker", "RC104") == \
            marker_lines("rc1_worker", "RC104")

    def test_good_task_is_clean(self, findings):
        flagged = {d.symbol for diags in findings.values() for d in diags}
        assert "rc1_worker.good_task" not in flagged


class TestDeterminism:
    @pytest.mark.parametrize("code", ["RC201", "RC202", "RC203"])
    def test_fires_at_marked_line(self, findings, code):
        assert lines_of(findings, "rc2_determinism", code) == \
            marker_lines("rc2_determinism", code)

    def test_severities(self, findings):
        assert all(d.severity == "error"
                   for d in findings[("rc2_determinism", "RC201")])
        assert all(d.severity == "warning"
                   for d in findings[("rc2_determinism", "RC203")])


class TestErrorDiscipline:
    @pytest.mark.parametrize("code", ["RC301", "RC302"])
    def test_fires_at_marked_line(self, findings, code):
        assert lines_of(findings, "rc3_errors", code) == \
            marker_lines("rc3_errors", code)

    def test_value_error_is_sanctioned(self, findings):
        lines = lines_of(findings, "rc3_errors", "RC301")
        with open(os.path.join(FIXTURES, "rc3_errors.py")) as f:
            clean = [i for i, line in enumerate(f, start=1)
                     if "ValueError" in line]
        assert not set(lines) & set(clean)


class TestGuardIdiom:
    def test_rc401_unguarded_slot_use(self, findings):
        assert lines_of(findings, "rc4_guards", "RC401") == \
            marker_lines("rc4_guards", "RC401")

    def test_rc402_bad_metric_name(self, findings):
        assert lines_of(findings, "rc4_guards", "RC402") == \
            marker_lines("rc4_guards", "RC402")

    def test_guarded_idioms_are_clean(self, findings):
        flagged = {d.symbol for d in findings.get(("rc4_guards", "RC401"), [])}
        assert "rc4_guards.guarded_use" not in flagged
        assert "rc4_guards.guarded_binding" not in flagged

    def test_defining_module_is_exempt(self, findings):
        assert ("rc4_slot", "RC401") not in findings


class TestDeadlinePoll:
    def test_rc501_unpolled_hot_loop(self, findings):
        assert lines_of(findings, "rc5_deadline", "RC501") == \
            marker_lines("rc5_deadline", "RC501")

    def test_polled_and_delegating_loops_are_clean(self, findings):
        flagged = {d.symbol
                   for d in findings.get(("rc5_deadline", "RC501"), [])}
        assert flagged == {"rc5_deadline.hot_loop"}

    def test_scope_is_config_driven(self):
        # Without the hot_modules override nothing in the fixture tree
        # is a hot module, so RC501 stays silent.
        reports = analyze_code(FIXTURES, config=CodelintConfig())
        assert not any(f.code == "RC501"
                       for r in reports for f in r.findings)


class TestReportShape:
    def test_diagnostics_carry_line_and_symbol(self, findings):
        for diags in findings.values():
            for d in diags:
                assert d.line is not None
                assert d.symbol is not None

    def test_every_family_has_a_fixture(self, findings):
        fired = {code for (_, code) in findings}
        for family in ("RC1", "RC2", "RC3", "RC4", "RC5"):
            assert any(c.startswith(family) for c in fired), family
