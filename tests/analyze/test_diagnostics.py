"""Diagnostics framework: rendering, sorting, queries, JSON."""

import json

from repro.analyze.diagnostics import (
    ERROR,
    INFO,
    WARNING,
    AnalysisReport,
    Diagnostic,
    render_reports,
    reports_to_json,
)


def make_report():
    r = AnalysisReport("demo", stats={"n_constraints": 3, "n_wires": 5})
    r.extend([
        Diagnostic(code="ZK403", severity=INFO, message="pad"),
        Diagnostic(code="ZK201", severity=ERROR, wire=4, message="unbound"),
        Diagnostic(code="ZK302", severity=WARNING, constraint=1, message="dup"),
    ])
    return r.finalize()


class TestDiagnostic:
    def test_format_with_location_and_suggestion(self):
        d = Diagnostic(code="ZK201", severity=ERROR, wire=4,
                       message="unbound", suggestion="constrain it")
        text = d.format()
        assert text == "ZK201 error [wire 4]: unbound (constrain it)"

    def test_format_without_location(self):
        d = Diagnostic(code="ZK402", severity=WARNING, message="blowup")
        assert d.format() == "ZK402 warning: blowup"

    def test_to_dict_omits_empty_fields(self):
        d = Diagnostic(code="ZK402", severity=WARNING, message="blowup")
        assert d.to_dict() == {"code": "ZK402", "severity": WARNING,
                               "message": "blowup"}


class TestReport:
    def test_sorted_severity_first(self):
        r = make_report()
        assert [d.code for d in r.diagnostics] == ["ZK201", "ZK302", "ZK403"]

    def test_queries(self):
        r = make_report()
        assert r.has_errors
        assert len(r.errors()) == 1
        assert len(r.warnings()) == 1
        assert r.codes() == {"ZK201", "ZK302", "ZK403"}

    def test_render_mentions_every_finding(self):
        text = make_report().render()
        for code in ("ZK201", "ZK302", "ZK403"):
            assert code in text

    def test_clean_render(self):
        r = AnalysisReport("ok", stats={"n_constraints": 1, "n_wires": 2})
        assert "clean" in r.render()

    def test_json_roundtrip(self):
        payload = json.loads(reports_to_json([make_report()]))
        (rep,) = payload["reports"]
        assert rep["circuit"] == "demo"
        assert len(rep["diagnostics"]) == 3
        assert rep["diagnostics"][0]["code"] == "ZK201"

    def test_render_reports_totals(self):
        text = render_reports([make_report()])
        assert "1 circuit(s) analyzed: 1 error(s), 1 warning(s)" in text
