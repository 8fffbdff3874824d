"""RC1xx worker-safety: a static race detector for the fork pool.

Functions dispatched through ``repro.parallel.tasks`` run inside forked
worker processes.  The pool's determinism contract (docs/PARALLELISM.md)
requires each task to be a pure function of its plain-data payload:

========  ========  ====================================================
RC101     error     TASKS registers something that is not a module-level
                    function (lambda / nested def / unresolvable)
RC102     error     worker task signature is not exactly one positional
                    payload parameter
RC103     error     worker-reachable code writes shared module-global
                    state (``global`` rebinding, subscript/attribute
                    stores on module globals, stores to a field of the
                    run context — ``context.scoped`` is its one writer)
RC104     warning   worker task declares a mutable default argument
========  ========  ====================================================

RC103 is the race detector proper: under the fork backend a write to a
module global mutates state the parent and sibling tasks may also see
(and under a future thread backend, *will* see).  Deliberate per-process
caches carry an inline ``# codelint: ignore[RC103]`` with a reason.
"""

from __future__ import annotations

import ast

from tools.codelint.graph import FunctionInfo, dotted_name
from tools.codelint.model import ERROR, WARNING, Finding

__all__ = ["check_worker_safety"]


def _mutable_default(node):
    return isinstance(node, (ast.Dict, ast.List, ast.Set, ast.ListComp,
                             ast.DictComp, ast.SetComp))


def _signature_violation(args):
    """Reason string when the signature breaks the payload contract."""
    n_pos = len(args.posonlyargs) + len(args.args)
    names = [a.arg for a in args.posonlyargs + args.args]
    if names and names[0] == "self":  # methods never register; belt+braces
        n_pos -= 1
    if n_pos != 1:
        return f"takes {n_pos} positional parameters, expected 1 (payload)"
    if args.vararg or args.kwarg or args.kwonlyargs:
        return "takes *args/**kwargs/keyword-only parameters"
    if args.defaults:
        return "declares default values"
    return None


def _local_names(fn_node):
    """Names bound locally (params + simple assignments) in a function."""
    locals_ = set()
    for a in (fn_node.args.posonlyargs + fn_node.args.args
              + fn_node.args.kwonlyargs):
        locals_.add(a.arg)
    if fn_node.args.vararg:
        locals_.add(fn_node.args.vararg.arg)
    if fn_node.args.kwarg:
        locals_.add(fn_node.args.kwarg.arg)
    for node in ast.walk(fn_node):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            locals_.add(node.id)
        elif isinstance(node, (ast.For, ast.comprehension)):
            tgt = node.target
            for t in ast.walk(tgt):
                if isinstance(t, ast.Name):
                    locals_.add(t.id)
    return locals_


def _global_writes(index, fn):
    """Yield ``(lineno, description)`` for module-global mutations."""
    mod_globals = index.module_globals.get(fn.module, set())
    declared_global = set()
    for node in ast.walk(fn.node):
        if isinstance(node, ast.Global):
            declared_global.update(node.names)
    locals_ = _local_names(fn.node) - declared_global
    for node in ast.walk(fn.node):
        # ``setattr(RUN, field, value)``: the dynamic spelling of a store
        # to the run context, sanctioned only in the module that owns it.
        if isinstance(node, ast.Call) and node.args \
                and dotted_name(node.func) == "setattr" \
                and index.context_module(fn, node.args[0]) \
                not in (None, fn.module):
            yield (node.lineno, "stores to a run-context field with setattr")
        targets = ()
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = (node.target,)
        elif isinstance(node, ast.Delete):
            targets = node.targets
        for tgt in targets:
            # Rebinding a declared-global name.
            if isinstance(tgt, ast.Name) and tgt.id in declared_global:
                yield (node.lineno, f"rebinds module global {tgt.id!r}")
                continue
            # Subscript/attribute stores: walk to the base name.
            base = tgt
            depth = 0
            while isinstance(base, (ast.Subscript, ast.Attribute)):
                base = base.value
                depth += 1
            if depth == 0 or not isinstance(base, ast.Name):
                # Cross-module writes (``mod.NAME = x``) have a dotted
                # base; everything else (locals, self) is fine.
                dotted = dotted_name(tgt.value) if isinstance(
                    tgt, (ast.Subscript, ast.Attribute)) else None
                if dotted and index.resolve_name(fn, dotted) in index.modules:
                    yield (node.lineno,
                           f"writes into module {dotted!r} from a worker")
                continue
            if base.id in locals_ or base.id == "self":
                continue
            if base.id in mod_globals:
                yield (node.lineno,
                       f"mutates module global {base.id!r} "
                       f"({'subscript' if isinstance(tgt, ast.Subscript) else 'attribute'} store)")


def check_worker_safety(index):
    """Yield ``(module_name, Finding)`` for the RC1xx family."""
    # RC101/RC102/RC104 on the registry entries themselves.
    task_fns = []
    for mod_name, registry in index.task_registries.items():
        mod = index.modules[mod_name]
        for key, value in registry.items():
            label = key if key is not None else "<dynamic>"
            name = dotted_name(value)
            qual = None
            if name is not None:
                probe = FunctionInfo(qualname=f"{mod_name}.<registry>",
                                     module=mod_name, name="<registry>",
                                     node=mod.tree)
                qual = index.resolve_name(probe, name)
            info = index.functions.get(qual) if qual else None
            if info is None or info.cls is not None or info.nested:
                yield mod_name, Finding(
                    code="RC101", severity=ERROR,
                    message=f"worker task {label!r} is not a module-level "
                            f"function (fork workers dispatch by reference; "
                            f"lambdas and nested defs capture parent state)",
                    line=value.lineno, symbol=f"TASKS[{label!r}]",
                    suggestion="register a top-level function",
                )
                continue
            task_fns.append(info)
            reason = _signature_violation(info.node.args)
            if reason is not None:
                yield info.module, Finding(
                    code="RC102", severity=ERROR,
                    message=f"worker task {info.name!r} {reason}; the "
                            f"envelope calls tasks as fn(payload) with "
                            f"plain picklable data",
                    line=info.lineno, symbol=info.qualname,
                    suggestion="accept a single payload dict",
                )
            for default in (info.node.args.defaults
                            + [d for d in info.node.args.kw_defaults if d]):
                if _mutable_default(default):
                    yield info.module, Finding(
                        code="RC104", severity=WARNING,
                        message=f"worker task {info.name!r} has a mutable "
                                f"default argument (shared across calls "
                                f"within one worker process)",
                        line=default.lineno, symbol=info.qualname,
                        suggestion="default to None and build inside",
                    )

    # RC103 over everything a worker can reach.
    for qual in sorted(index.worker_reachable()):
        fn = index.functions.get(qual)
        if fn is None:
            continue
        for lineno, description in _global_writes(index, fn):
            yield fn.module, Finding(
                code="RC103", severity=ERROR,
                message=f"worker-reachable function {fn.name!r} "
                        f"{description}; forked tasks must not touch "
                        f"shared mutable state",
                line=lineno, symbol=fn.qualname,
                suggestion="pass data through the payload, or suppress "
                           "with a reason if this is a per-process cache",
            )
