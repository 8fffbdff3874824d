"""The repository must self-lint clean, and the suppression / graph
machinery that makes that statement meaningful must hold."""

import textwrap

from repro.analyze.code import (
    CodeIndex,
    CodelintConfig,
    analyze_code,
    default_root,
    load_tree,
)
from repro.analyze.code.model import parse_suppressions


class TestSelfLint:
    def test_src_repro_has_zero_unsuppressed_findings(self):
        reports = analyze_code()
        dirty = {r.circuit: [d.format() for d in r.diagnostics]
                 for r in reports if r.diagnostics}
        assert dirty == {}, f"codelint regressions: {dirty}"

    def test_default_root_is_the_package(self):
        assert default_root().endswith("repro")

    def test_reports_cover_every_module(self):
        reports = analyze_code()
        names = [r.circuit for r in reports]
        assert "repro.workflow" in names
        assert "repro.parallel.pool" in names
        assert names == sorted(names)
        for r in reports:
            assert r.stats["lines"] > 0


class TestSuppressions:
    def test_trailing_comment_suppresses(self, tmp_path):
        mod = tmp_path / "sup.py"
        mod.write_text(textwrap.dedent("""\
            class FixtureWorkflow:
                def run_stage(self, stage):
                    raise RuntimeError("x")  # codelint: ignore[RC301] -- test
        """))
        reports = analyze_code(str(mod))
        assert not any(d.code == "RC301"
                       for r in reports for d in r.diagnostics)

    def test_comment_on_line_above_suppresses(self, tmp_path):
        mod = tmp_path / "sup.py"
        mod.write_text(textwrap.dedent("""\
            class FixtureWorkflow:
                def run_stage(self, stage):
                    # codelint: ignore[RC301] -- reason on the line above
                    raise RuntimeError("x")
        """))
        reports = analyze_code(str(mod))
        assert not any(d.code == "RC301"
                       for r in reports for d in r.diagnostics)

    def test_wrong_code_does_not_suppress(self, tmp_path):
        mod = tmp_path / "sup.py"
        mod.write_text(textwrap.dedent("""\
            class FixtureWorkflow:
                def run_stage(self, stage):
                    raise RuntimeError("x")  # codelint: ignore[RC999]
        """))
        reports = analyze_code(str(mod))
        assert any(d.code == "RC301"
                   for r in reports for d in r.diagnostics)

    def test_parse_suppressions_multiple_codes(self):
        lines = ["x = 1  # codelint: ignore[RC103, RC501] -- both"]
        assert parse_suppressions(lines) == {1: {"RC103", "RC501"}}


class TestCodeIndex:
    def test_worker_roots_resolve_registered_tasks(self):
        index = CodeIndex(load_tree(default_root()), CodelintConfig())
        roots = index.worker_roots()
        assert "repro.parallel.tasks.msm_window_slice" in roots
        assert "repro.parallel.tasks.ntt_sub" in roots

    def test_worker_reachability_crosses_modules(self):
        index = CodeIndex(load_tree(default_root()), CodelintConfig())
        reach = index.worker_reachable()
        # msm_window_slice runs the signed-digit bucket kernel in the worker.
        assert "repro.msm.wnaf.signed_bucket_msm" in reach

    def test_stage_roots_match_workflow_methods(self):
        index = CodeIndex(load_tree(default_root()), CodelintConfig())
        roots = index.stage_roots()
        assert "repro.workflow.Workflow.run_stage" in roots
        assert "repro.workflow.Workflow._stage_proving" in roots

    def test_taxonomy_subclasses_resolve_transitively(self):
        index = CodeIndex(load_tree(default_root()), CodelintConfig())
        subs = index.subclasses_of({"ReproError"})
        assert "repro.resilience.errors.StageOrderError" in subs
        assert "repro.resilience.errors.PoolStateError" in subs
