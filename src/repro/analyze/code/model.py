"""Source model of the codebase analyzer: modules, suppressions, config.

The code analyzer (docs/CODELINT.md) never *imports* the code it checks —
every module is parsed into an AST and analyzed purely statically, so
seeded-violation fixtures and the live tree go through the identical path.

Inline suppressions mirror ``noqa``/circomspect: a comment

    ``# codelint: ignore[RC103] -- per-process cache, never shared``

trailing the line a diagnostic is anchored to — or standing alone on the
line directly above it — drops that diagnostic (the ``-- reason`` tail
is free-form and encouraged).  Several codes may be listed
(``ignore[RC103,RC501]``); an empty list is invalid, never a wildcard —
suppressions are always explicit about what they silence.
"""

from __future__ import annotations

import ast
import os
import re
from dataclasses import dataclass, field

__all__ = [
    "CodelintConfig",
    "SourceModule",
    "load_tree",
    "parse_suppressions",
]

#: ``# codelint: ignore[RC101,RC202]`` with an optional ``-- reason`` tail.
_SUPPRESS_RE = re.compile(
    r"#\s*codelint:\s*ignore\[([A-Z]+[0-9]+(?:\s*,\s*[A-Z]+[0-9]+)*)\]"
)


@dataclass(frozen=True)
class CodelintConfig:
    """Tunable scope of the five check families.

    The defaults describe *this* repository (its worker registry, its
    ``Workflow`` stage methods, its hot kernels, its sanctioned clock
    homes); tests point the same checks at fixture trees by overriding
    the relevant fields.  All module patterns are :mod:`fnmatch` globs
    against dotted module names.
    """

    #: Name of the module-level dict mapping task names to worker
    #: functions (RC1xx roots).  Any module defining one contributes.
    worker_registry: str = "TASKS"

    #: Function qualname globs whose bodies start stage execution
    #: (RC2xx/RC3xx roots): the pipeline's stages and the proving
    #: service's per-request stage body.  ``*`` so fixture trees with
    #: their own ``Workflow`` class match too.
    stage_roots: tuple = ("*Workflow.run_stage", "*Workflow._stage_*",
                          "*ProvingService._compute")

    #: Modules whose public loop-bearing functions must poll the
    #: cooperative Deadline (RC5xx).
    hot_modules: tuple = ("repro.msm.*", "repro.poly.ntt",
                          "repro.parallel.kernels")

    #: Modules sanctioned to read the monotonic measurement clocks
    #: (perf_counter / process_time / monotonic) — RC203.  The serving
    #: layer is a measurement layer: queue wait, deadline budgets and
    #: latency percentiles are its product, like the pool's task clocks.
    clock_modules: tuple = ("repro.obs.*", "repro.perf.*", "repro.harness.*",
                            "repro.workflow", "repro.parallel.pool",
                            "repro.resilience.*", "repro.serve.*")

    #: Modules sanctioned to read the wall clock (time.time etc.) —
    #: RC202.  The run ledger timestamps records; nothing else may.
    wallclock_modules: tuple = ("repro.obs.*",)

    #: Modules exempt from RC3xx error-discipline: telemetry/modeling
    #: infrastructure whose install-time guards are programmer errors,
    #: not pipeline failures (the typed-failure contract covers the
    #: pipeline).
    error_exempt_modules: tuple = ("repro.obs.*", "repro.perf.*")

    #: Exception classes stage-reachable code may raise besides the
    #: ``repro.resilience.errors`` taxonomy (and their subclasses).
    allowed_raises: tuple = ("ValueError", "TypeError")


@dataclass
class SourceModule:
    """One parsed source file: dotted name, AST, raw lines, suppressions."""

    name: str
    path: str
    tree: ast.Module
    lines: list = field(default_factory=list)
    #: line number -> set of suppressed codes on that line.
    suppressions: dict = field(default_factory=dict)

    @property
    def package(self):
        """Dotted package this module lives in (may be empty)."""
        return self.name.rpartition(".")[0]

    def suppressed(self, code, line):
        """True when *line* carries an inline suppression for *code* —
        trailing the line itself, or on the full-line comment above."""
        if code in self.suppressions.get(line, ()):
            return True
        above = line - 1
        return (code in self.suppressions.get(above, ())
                and 1 <= above <= len(self.lines)
                and self.lines[above - 1].lstrip().startswith("#"))


def parse_suppressions(lines):
    """Map of 1-based line number -> set of codes suppressed there."""
    out = {}
    for i, line in enumerate(lines, start=1):
        match = _SUPPRESS_RE.search(line)
        if match:
            out[i] = {c.strip() for c in match.group(1).split(",")}
    return out


def _module_name(root, path, prefix):
    rel = os.path.relpath(path, root)
    parts = rel[:-3].split(os.sep)  # strip ".py"
    if parts[-1] == "__init__":
        parts = parts[:-1]
    if prefix:
        parts = [prefix] + parts
    return ".".join(parts) if parts else prefix


def _load_file(name, path):
    with open(path, encoding="utf-8") as f:
        source = f.read()
    tree = ast.parse(source, filename=path)
    lines = source.splitlines()
    return SourceModule(name=name, path=path, tree=tree, lines=lines,
                        suppressions=parse_suppressions(lines))


def load_tree(root):
    """Parse every ``*.py`` under *root* into :class:`SourceModule` s.

    *root* may also be a single ``.py`` file (the per-fixture CLI mode).
    A directory containing ``__init__.py`` is treated as a package whose
    name prefixes every module (so ``src/repro`` loads as ``repro.*``);
    a plain directory yields top-level module names.
    """
    if os.path.isfile(root):
        name = os.path.basename(root)[:-3]
        return {name: _load_file(name, root)}
    if not os.path.isdir(root):
        raise ValueError(f"codelint root {root!r} is not a file or directory")
    prefix = (os.path.basename(os.path.abspath(root))
              if os.path.exists(os.path.join(root, "__init__.py")) else "")
    modules = {}
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames
                             if d != "__pycache__" and not d.startswith("."))
        for fname in sorted(filenames):
            if not fname.endswith(".py"):
                continue
            path = os.path.join(dirpath, fname)
            name = _module_name(root, path, prefix)
            modules[name] = _load_file(name, path)
    return modules
