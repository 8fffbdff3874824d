"""``tools.codelint`` — static analysis over the repository's own source.

The circuit analyzer (``repro lint``) checks what we *prove*; this tool
checks what we *run*: an AST-level framework with a module import/call
graph (:mod:`~tools.codelint.graph`) and five invariant check families —
worker-safety (RC1xx), determinism (RC2xx), error-discipline (RC3xx),
guard-idiom (RC4xx) and deadline-poll (RC5xx).  It is a repository tool,
not part of the installed ``repro`` package: run it from the repository
root with ``python -m tools.codelint``.  See README.md here for the
catalog.
"""

from tools.codelint.analyzer import CODE_PASSES, analyze_code, default_root
from tools.codelint.graph import CodeIndex, FunctionInfo
from tools.codelint.model import (
    CodelintConfig,
    Finding,
    ModuleReport,
    SourceModule,
    load_tree,
)

__all__ = [
    "CODE_PASSES",
    "CodeIndex",
    "CodelintConfig",
    "Finding",
    "FunctionInfo",
    "ModuleReport",
    "SourceModule",
    "analyze_code",
    "default_root",
    "load_tree",
]
