"""RC3xx error-discipline: every stage-reachable failure ends typed.

The typed-failure contract: anything the workflow can raise must be a
``repro.resilience.errors`` taxonomy leaf (so the retry policy can
classify it and the CLI can print a stable ``error[<code>]:`` line) or a
plain ``ValueError``/``TypeError`` input guard.

========  ========  ====================================================
RC301     error     stage-reachable code raises an untyped builtin
                    (RuntimeError, KeyError, OSError, ...)
RC302     error     stage-reachable code raises bare Exception /
                    BaseException
========  ========  ====================================================

Bare re-raises, raises of variables, and raises through factory calls
are skipped — the analysis only flags what it can prove.  Modules
matching ``error_exempt_modules`` (telemetry/modeling infrastructure)
are out of scope; their install-time guards are programmer errors, not
pipeline failures.
"""

from __future__ import annotations

import ast

from repro.analyze.code.graph import dotted_name, match_any
from repro.analyze.diagnostics import ERROR, Diagnostic

__all__ = ["check_error_discipline"]

#: Builtin exceptions that signal an *untyped* failure when raised on a
#: stage path.  (ValueError/TypeError and their subclasses are the
#: sanctioned input-guard exceptions; everything taxonomy-derived is
#: handled via the class hierarchy.)
_UNTYPED_BUILTINS = frozenset({
    "RuntimeError", "KeyError", "IndexError", "LookupError",
    "ArithmeticError", "ZeroDivisionError", "OverflowError",
    "OSError", "IOError", "EOFError", "StopIteration",
    "NotImplementedError", "AttributeError", "AssertionError",
    "SystemError", "MemoryError",
})

_BROAD = frozenset({"Exception", "BaseException"})


def _allowed_leaves(index):
    """Leaf class names stage code may raise: the configured allowlist
    plus everything transitively derived from it or from ReproError."""
    seeds = set(index.config.allowed_raises) | {"ReproError"}
    allowed = set(seeds)
    for qual in index.subclasses_of(seeds):
        allowed.add(qual.rpartition(".")[2])
    return allowed


def check_error_discipline(index):
    """Yield ``(module_name, Diagnostic)`` for the RC3xx family."""
    allowed = _allowed_leaves(index)
    exempt = index.config.error_exempt_modules
    for qual in sorted(index.stage_reachable()):
        fn = index.functions.get(qual)
        if fn is None or match_any(fn.module, exempt):
            continue
        for node in ast.walk(fn.node):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc
            if isinstance(exc, ast.Call):
                name = dotted_name(exc.func)
            else:
                name = dotted_name(exc)
            if name is None:
                continue  # computed expression; nothing provable
            leaf = name.rpartition(".")[2]
            resolved = index.resolve_name(fn, name)
            if resolved in index.classes:
                leaf = resolved.rpartition(".")[2]
            elif resolved in index.functions:
                continue  # factory function; its body is checked itself
            elif leaf[:1].islower():
                continue  # a variable holding an exception instance
            if leaf in allowed:
                continue
            if leaf in _BROAD:
                yield fn.module, Diagnostic(
                    code="RC302", severity=ERROR,
                    message=f"{fn.name!r} raises bare {leaf} on a "
                            f"stage-reachable path; the retry policy "
                            f"cannot classify it",
                    line=node.lineno, symbol=fn.qualname,
                    suggestion="raise a repro.resilience.errors leaf",
                )
            elif leaf in _UNTYPED_BUILTINS or resolved in index.classes:
                yield fn.module, Diagnostic(
                    code="RC301", severity=ERROR,
                    message=f"{fn.name!r} raises untyped {leaf} on a "
                            f"stage-reachable path; every workflow "
                            f"failure must be a taxonomy leaf or a "
                            f"ValueError/TypeError input guard",
                    line=node.lineno, symbol=fn.qualname,
                    suggestion="raise a repro.resilience.errors leaf "
                               "with a stable error[<code>] one-liner",
                )
