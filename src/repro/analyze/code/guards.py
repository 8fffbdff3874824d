"""RC4xx guard-idiom: run-context fields stay behind ``is None`` guards.

Every ambient instrument is one field of the run context
(``RUN.metrics``, ``RUN.spans``, ``RUN.faults``, ``RUN.deadline``, ...;
docs/ARCHITECTURE.md) that is ``None`` unless installed, so an
uninstrumented run pays a single attribute read.  Code must therefore
*guard* every use of a field:

========  ========  ====================================================
RC401     error     slot use (direct or through a local binding) not
                    dominated by an ``is None`` / ``is not None`` guard
RC402     error     metric name literal does not match
                    ``repro_<subsystem>_<name>`` (``repro(_[a-z0-9]+)+``)
========  ========  ====================================================

The dominance analysis recognizes the idioms the codebase actually uses:
an enclosing ``if X is not None:`` (use in the body), ``if X is None:``
(use in the else branch), conditional expressions, ``and`` chains, and
the early-return form ``x = RUN.metrics`` / ``if x is None: return``.
"""

from __future__ import annotations

import ast
import re

from repro.analyze.diagnostics import ERROR, Diagnostic

__all__ = ["check_guard_idiom"]

#: Mirror of repro.obs.metrics._NAME_RE — the registry enforces this at
#: runtime; the lint catches it before the run does.
_NAME_RE = re.compile(r"^repro(_[a-z0-9]+)+$")

#: Metric-emitting methods whose first argument is the metric name.
_METRIC_METHODS = frozenset({"inc", "observe", "set_gauge"})

_TERMINAL = (ast.Return, ast.Raise, ast.Continue, ast.Break)


def _parents(root):
    out = {}
    for parent in ast.walk(root):
        for child in ast.iter_child_nodes(parent):
            out[id(child)] = parent
    return out


def _contains(stmt, node):
    return any(n is node for n in ast.walk(stmt))


class _Key:
    """What a guard must test: a local name or a slot expression."""

    def __init__(self, var=None, slot=None, index=None, fn=None):
        self.var, self.slot, self.index, self.fn = var, slot, index, fn

    def matches(self, expr):
        if self.var is not None:
            return isinstance(expr, ast.Name) and expr.id == self.var
        return self.index.slot_read(self.fn, expr) == self.slot


def _positive_guard(test, key):
    """True for ``X is not None`` / truthy ``X``."""
    if isinstance(test, ast.Compare) and len(test.ops) == 1 \
            and isinstance(test.ops[0], ast.IsNot) \
            and isinstance(test.comparators[0], ast.Constant) \
            and test.comparators[0].value is None:
        return key.matches(test.left)
    return key.matches(test)


def _negative_guard(test, key):
    """True for ``X is None`` / ``not X``."""
    if isinstance(test, ast.Compare) and len(test.ops) == 1 \
            and isinstance(test.ops[0], ast.Is) \
            and isinstance(test.comparators[0], ast.Constant) \
            and test.comparators[0].value is None:
        return key.matches(test.left)
    if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
        return key.matches(test.operand)
    return False


def _in_field(container, field_stmts, node):
    return any(_contains(s, node) for s in field_stmts)


def _guarded(node, key, parents, fn_node):
    """Is *node* dominated by a None-guard on *key*?"""
    child = node
    while id(child) in parents:
        parent = parents[id(child)]
        if isinstance(parent, (ast.If, ast.While)):
            if _in_field(parent, parent.body, node) \
                    and _positive_guard(parent.test, key):
                return True
            if _in_field(parent, parent.orelse, node) \
                    and _negative_guard(parent.test, key):
                return True
        elif isinstance(parent, ast.IfExp):
            if _contains(parent.body, node) \
                    and _positive_guard(parent.test, key):
                return True
            if _contains(parent.orelse, node) \
                    and _negative_guard(parent.test, key):
                return True
        elif isinstance(parent, ast.BoolOp) and isinstance(parent.op, ast.And):
            for i, value in enumerate(parent.values):
                if _contains(value, node):
                    if any(_positive_guard(v, key)
                           for v in parent.values[:i]):
                        return True
                    break
        # Early-return guard among preceding siblings of any enclosing
        # statement: ``if x is None: return`` before the use.
        if isinstance(parent, (ast.If, ast.For, ast.While, ast.With,
                               ast.Try, ast.FunctionDef,
                               ast.AsyncFunctionDef, ast.Module)):
            for block in _stmt_blocks(parent):
                for i, stmt in enumerate(block):
                    if _contains(stmt, node):
                        for prev in block[:i]:
                            if isinstance(prev, ast.If) and prev.body \
                                    and isinstance(prev.body[-1], _TERMINAL) \
                                    and _negative_guard(prev.test, key):
                                return True
                        break
        if parent is fn_node:
            break
        child = parent
    return False


def _is_deref(parent, node):
    """True when *node* is dereferenced — the failure mode of an
    unguarded None slot (attribute access, subscript, or call)."""
    return (isinstance(parent, ast.Attribute) and parent.value is node) \
        or (isinstance(parent, ast.Subscript) and parent.value is node) \
        or (isinstance(parent, ast.Call) and parent.func is node)


def _stmt_blocks(node):
    for fname in ("body", "orelse", "finalbody"):
        block = getattr(node, fname, None)
        if isinstance(block, list) and block \
                and isinstance(block[0], ast.stmt):
            yield block
    for handler in getattr(node, "handlers", ()):
        yield handler.body


def _slot_uses(index, fn):
    """Yield ``(node, key, parents, field)`` for every run-context field
    use in *fn*."""
    parents = _parents(fn.node)
    tracked = {}  # local var name -> (slot, assign lineno)
    binding_reads = set()  # id() of slot reads that only feed a binding
    reads = []
    for node in ast.walk(fn.node):
        slot = index.slot_read(fn, node)
        if slot is not None:
            reads.append((node, slot))
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name):
            # ``t = RUN.tracer`` and ``t = RUN.tracer if traced else
            # None`` both bind the field; the *uses* of t are checked.
            for sub in ast.walk(node.value):
                vslot = index.slot_read(fn, sub)
                if vslot is not None:
                    tracked[node.targets[0].id] = (vslot, node.lineno)
                    binding_reads.add(id(sub))
    for node, slot in reads:
        parent = parents.get(id(node))
        # The read *is* a guard test or the value of a tracked binding;
        # only dereferences can crash on a None slot.
        if isinstance(parent, ast.Compare) and node is parent.left:
            continue
        if id(node) in binding_reads or not _is_deref(parent, node):
            continue
        yield node, _Key(slot=slot, index=index, fn=fn), parents, slot
    for var, (slot, assign_line) in tracked.items():
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Name) and node.id == var \
                    and isinstance(node.ctx, ast.Load) \
                    and node.lineno > assign_line:
                parent = parents.get(id(node))
                if not _is_deref(parent, node):
                    continue
                yield node, _Key(var=var), parents, slot


def check_guard_idiom(index):
    """Yield ``(module_name, Diagnostic)`` for the RC4xx family."""
    for qual in sorted(index.functions):
        fn = index.functions[qual]
        if fn.nested:
            continue  # covered by the enclosing function's walk
        for node, key, parents, slot in _slot_uses(index, fn):
            if _guarded(node, key, parents, fn.node):
                continue
            yield fn.module, Diagnostic(
                code="RC401", severity=ERROR,
                message=f"{fn.name!r} uses run-context field RUN.{slot} "
                        f"without an 'is None' guard; the field is None "
                        f"on uninstrumented runs",
                line=node.lineno, symbol=fn.qualname,
                suggestion=f"guard with 'if RUN.{slot} is not None:'",
            )
        for node in ast.walk(fn.node):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _METRIC_METHODS and node.args):
                continue
            arg = node.args[0]
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                literal = arg.value
            elif isinstance(arg, ast.JoinedStr):
                literal = "".join(
                    part.value if isinstance(part, ast.Constant) else "x"
                    for part in arg.values)
            else:
                continue
            if not _NAME_RE.match(literal):
                yield fn.module, Diagnostic(
                    code="RC402", severity=ERROR,
                    message=f"metric name {literal!r} does not match "
                            f"repro_<subsystem>_<name> "
                            f"({_NAME_RE.pattern}); the registry would "
                            f"reject it at runtime",
                    line=arg.lineno, symbol=fn.qualname,
                    suggestion="rename to repro_<subsystem>_<name>",
                )
