"""RC5xx deadline-poll: hot kernel loops must stay cancellable.

The resilience layer's per-stage deadline (PR 3) is *cooperative*: a
kernel that never calls ``Deadline.check()`` cannot be timed out, so a
runaway MSM or NTT defeats the chaos contract.  RC501 requires every
public loop-bearing function in the configured hot modules to reach a
``RUN.deadline`` poll — directly or through its callees (``msm_pippenger``
polls once per window, so ``msm_auto`` inherits the property).

========  ========  ====================================================
RC501     error     public function in a hot module contains a loop but
                    never reaches a ``RUN.deadline.check()`` poll
========  ========  ====================================================

Intentionally unpolled leaves (e.g. the serial reference transforms the
differential suite compares against) carry an inline suppression.
"""

from __future__ import annotations

import ast

from repro.analyze.code.graph import match_any
from repro.analyze.diagnostics import ERROR, Diagnostic

__all__ = ["check_deadline_polls"]


def _has_loop(fn_node):
    return any(isinstance(n, (ast.For, ast.While, ast.AsyncFor))
               for n in ast.walk(fn_node))


def _polls_directly(index, fn):
    """True when *fn* contains ``RUN.deadline.check(...)`` (directly or
    through a local bound from the field)."""
    bound = set()  # locals holding the slot value
    for node in ast.walk(fn.node):
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name) \
                and index.slot_read(fn, node.value) == "deadline":
            bound.add(node.targets[0].id)
    for node in ast.walk(fn.node):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "check"):
            continue
        recv = node.func.value
        if index.slot_read(fn, recv) == "deadline":
            return True
        if isinstance(recv, ast.Name) and recv.id in bound:
            return True
    return False


def _polls(index, fn, seen):
    if fn.qualname in seen:
        return False
    seen.add(fn.qualname)
    if _polls_directly(index, fn):
        return True
    for callee in index.call_targets(fn):
        target = index.functions.get(callee)
        if target is not None and _polls(index, target, seen):
            return True
    return False


def check_deadline_polls(index):
    """Yield ``(module_name, Diagnostic)`` for the RC5xx family."""
    hot = index.config.hot_modules
    for qual in sorted(index.functions):
        fn = index.functions[qual]
        if not match_any(fn.module, hot) or not fn.is_public:
            continue
        if fn.name == "__init__" or not _has_loop(fn.node):
            continue
        if _polls(index, fn, set()):
            continue
        yield fn.module, Diagnostic(
            code="RC501", severity=ERROR,
            message=f"hot-path function {fn.name!r} loops but never "
                    f"polls the cooperative Deadline; a stage timeout "
                    f"cannot interrupt it",
            line=fn.lineno, symbol=fn.qualname,
            suggestion="poll 'if RUN.deadline is not None: "
                       "RUN.deadline.check()' inside the loop, "
                       "or suppress for serial reference kernels",
        )
