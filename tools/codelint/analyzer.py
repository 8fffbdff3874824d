"""Orchestration for the codebase analyzer (``python -m tools.codelint``).

:func:`analyze_code` parses a source tree (never importing it), builds
the :class:`~tools.codelint.graph.CodeIndex`, runs every RC check
family, applies the inline ``# codelint: ignore[...]`` comments, and
returns one :class:`~tools.codelint.model.ModuleReport` per module.
"""

from __future__ import annotations

import os

from tools.codelint.deadline import check_deadline_polls
from tools.codelint.determinism import check_determinism
from tools.codelint.discipline import check_error_discipline
from tools.codelint.graph import CodeIndex
from tools.codelint.guards import check_guard_idiom
from tools.codelint.model import CodelintConfig, Finding, ModuleReport, load_tree
from tools.codelint.worker_safety import check_worker_safety

__all__ = ["CODE_PASSES", "analyze_code", "default_root"]

#: Ordered pass registry: family name -> callable(CodeIndex) yielding
#: ``(module_name, Finding)`` pairs.
CODE_PASSES = {
    "worker": check_worker_safety,        # RC1xx
    "determinism": check_determinism,     # RC2xx
    "errors": check_error_discipline,     # RC3xx
    "guards": check_guard_idiom,          # RC4xx
    "deadline": check_deadline_polls,     # RC5xx
}


def default_root():
    """The repository's ``src/repro`` package — what the tool analyzes."""
    repo = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    return os.path.join(repo, "src", "repro")


def analyze_code(root=None, *, config=None):
    """Run the codebase analyzer over the source tree at *root*.

    Parameters
    ----------
    root:
        Directory (package or plain) or single ``.py`` file; defaults to
        :func:`default_root`.
    config:
        :class:`~tools.codelint.model.CodelintConfig`; the default
        describes this repository.

    Returns
    -------
    list[ModuleReport]
        One report per module, sorted by module name; clean modules are
        included.
    """
    root = root if root is not None else default_root()
    config = config or CodelintConfig()
    modules = load_tree(root)
    index = CodeIndex(modules, config)

    per_module = {name: {} for name in modules}
    for check in CODE_PASSES.values():
        for mod_name, finding in check(index):
            mod = modules.get(mod_name)
            if mod is None or mod.suppressed(finding.code, finding.line):
                continue
            # Nested defs are walked by both their own FunctionInfo and
            # the enclosing function's; collapse to one finding.
            key = (finding.code, finding.line, finding.message)
            per_module[mod_name].setdefault(key, finding)

    reports = []
    for mod_name in sorted(modules):
        n_functions = sum(1 for f in index.functions.values()
                          if f.module == mod_name and not f.nested)
        findings = sorted(per_module[mod_name].values(), key=Finding.sort_key)
        reports.append(ModuleReport(module=mod_name,
                                    lines=len(modules[mod_name].lines),
                                    functions=n_functions,
                                    findings=findings))
    return reports
