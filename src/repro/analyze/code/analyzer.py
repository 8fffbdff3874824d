"""Orchestration for the codebase analyzer (``repro codelint``).

:func:`analyze_code` parses a source tree (never importing it), builds
the :class:`~repro.analyze.code.graph.CodeIndex`, runs every RC check
family, applies the inline ``# codelint: ignore[...]`` comments, and
returns one :class:`~repro.analyze.diagnostics.AnalysisReport` per
module — the same report type the circuit analyzer emits, so both lint
verbs share the renderers.
"""

from __future__ import annotations

import os

from repro.analyze.code.deadline import check_deadline_polls
from repro.analyze.code.determinism import check_determinism
from repro.analyze.code.discipline import check_error_discipline
from repro.analyze.code.graph import CodeIndex
from repro.analyze.code.guards import check_guard_idiom
from repro.analyze.code.model import CodelintConfig, load_tree
from repro.analyze.code.worker_safety import check_worker_safety
from repro.analyze.diagnostics import AnalysisReport

__all__ = ["CODE_PASSES", "analyze_code", "default_root"]

#: Ordered pass registry: family name -> callable(CodeIndex) yielding
#: ``(module_name, Diagnostic)`` pairs.
CODE_PASSES = {
    "worker": check_worker_safety,        # RC1xx
    "determinism": check_determinism,     # RC2xx
    "errors": check_error_discipline,     # RC3xx
    "guards": check_guard_idiom,          # RC4xx
    "deadline": check_deadline_polls,     # RC5xx
}


def default_root():
    """The installed ``repro`` package directory — what the bare
    ``repro codelint`` invocation analyzes."""
    import repro

    return os.path.dirname(os.path.abspath(repro.__file__))


def analyze_code(root=None, *, config=None):
    """Run the codebase analyzer over the source tree at *root*.

    Parameters
    ----------
    root:
        Directory (package or plain) or single ``.py`` file; defaults to
        the installed ``repro`` package.
    config:
        :class:`~repro.analyze.code.model.CodelintConfig`; the default
        describes this repository.

    Returns
    -------
    list[AnalysisReport]
        One report per module, sorted by module name; clean modules are
        included (renderers may elide them).
    """
    root = root if root is not None else default_root()
    config = config or CodelintConfig()
    modules = load_tree(root)
    index = CodeIndex(modules, config)

    per_module = {name: [] for name in modules}
    seen = {name: set() for name in modules}
    for check in CODE_PASSES.values():
        for mod_name, diag in check(index):
            mod = modules.get(mod_name)
            if mod is None:
                continue
            if diag.line is not None and mod.suppressed(diag.code, diag.line):
                continue
            # Nested defs are walked by both their own FunctionInfo and
            # the enclosing function's; collapse to one finding.
            key = (diag.code, diag.line, diag.message)
            if key in seen[mod_name]:
                continue
            seen[mod_name].add(key)
            per_module[mod_name].append(diag)

    reports = []
    for mod_name in sorted(modules):
        mod = modules[mod_name]
        n_functions = sum(1 for f in index.functions.values()
                          if f.module == mod_name and not f.nested)
        report = AnalysisReport(
            circuit=mod_name,
            stats={"path": mod.path, "functions": n_functions,
                   "lines": len(mod.lines)},
            diagnostics=list(per_module[mod_name]),
        )
        reports.append(report.finalize())
    return reports
