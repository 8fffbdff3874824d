"""Module-level import/call graph over the parsed source tree.

The check families reason about *reachability*, not text: a function is
**worker-reachable** when a registered worker task (an entry of the
module-level ``TASKS`` dict) can call into it, and **stage-reachable**
when a ``Workflow`` stage body can.  :class:`CodeIndex` builds the
function table, resolves imports (including the repo's lazy in-function
imports and package re-exports), and derives a conservative call graph:

- names and dotted paths resolve through the alias chain
  (``from repro.groth16 import prove`` -> ``repro.groth16.prover.prove``);
- ``self.method()`` resolves to the enclosing class;
- attribute calls on unresolvable receivers fall back to class-hierarchy
  style matching by method name (``pool.map`` -> ``WorkerPool.map``),
  skipping a denylist of container-protocol names too generic to mean
  anything (``append``, ``items``, ...).

Over-approximation is the safe direction here: an extra edge widens the
set of code the discipline checks scrutinize; a missing edge would let a
violation hide.
"""

from __future__ import annotations

import ast
import fnmatch
from dataclasses import dataclass, field

__all__ = ["CodeIndex", "FunctionInfo", "dotted_name", "match_any"]

#: Attribute names never resolved by bare-name matching: the container /
#: string protocol, where a method-name match is overwhelmingly a stdlib
#: call, not one of ours.
GENERIC_METHODS = frozenset({
    "append", "extend", "insert", "remove", "pop", "clear", "copy", "sort",
    "count", "index", "items", "keys", "values", "get", "setdefault",
    "update", "add", "discard", "union", "join", "split", "rsplit",
    "strip", "lstrip", "rstrip", "startswith", "endswith", "replace",
    "format", "encode", "decode", "lower", "upper", "partition",
    "rpartition", "read", "write", "readlines", "flush", "group",
    "groups", "match", "search",
})

#: Module-level name of the run-context object (``repro.context.RUN``):
#: reads of its ``__slots__`` fields are what RC4xx/RC5xx reason about and
#: stores to them what RC103 flags (see :meth:`CodeIndex.slot_read`).
CONTEXT_NAME = "RUN"


def dotted_name(node):
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def match_any(name, patterns):
    """True when *name* matches one of the fnmatch *patterns*."""
    return any(fnmatch.fnmatchcase(name, pat) for pat in patterns)


@dataclass
class FunctionInfo:
    """One function or method in the tree."""

    qualname: str
    module: str
    name: str
    node: ast.AST
    cls: str = None  # enclosing class name, for methods
    aliases: dict = field(default_factory=dict)  # in-function imports
    nested: bool = False  # defined inside another function

    @property
    def is_public(self):
        return not self.name.startswith("_") and not self.nested

    @property
    def lineno(self):
        return self.node.lineno


def _collect_aliases(body_nodes, package):
    """alias -> dotted target for Import/ImportFrom among *body_nodes*."""
    aliases = {}
    for node in body_nodes:
        if isinstance(node, ast.Import):
            for a in node.names:
                top = a.name.split(".")[0]
                aliases[a.asname or top] = a.name if a.asname else top
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:  # relative import, resolved against the package
                parts = package.split(".") if package else []
                parts = parts[: len(parts) - (node.level - 1)]
                base = ".".join(parts + ([node.module] if node.module else []))
            for a in node.names:
                if a.name == "*":
                    continue
                aliases[a.asname or a.name] = f"{base}.{a.name}" if base else a.name
    return aliases


class CodeIndex:
    """Queryable index over a ``{name: SourceModule}`` tree."""

    def __init__(self, modules, config):
        self.modules = modules
        self.config = config
        self.functions = {}        # qualname -> FunctionInfo
        self.classes = {}          # qualname -> ast.ClassDef
        self.class_bases = {}      # qualname -> [raw base names]
        self.methods_by_name = {}  # bare name -> [qualnames]
        self.module_aliases = {}   # module -> {alias: dotted target}
        self.module_globals = {}   # module -> set of module-level names
        self.mutable_globals = {}  # module -> names bound to mutable literals
        self.task_registries = {}  # module -> {task name: value node}
        self.context_fields = {}   # module defining RUN -> its __slots__
        self._calls = {}           # qualname -> frozenset of callee qualnames
        for mod in modules.values():
            self._index_module(mod)
        self._reach_cache = {}

    # -- construction -------------------------------------------------------------

    def _index_module(self, mod):
        top_aliases = _collect_aliases(mod.tree.body, mod.package)
        self.module_aliases[mod.name] = top_aliases
        globs = set()
        mutable = set()
        for node in mod.tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._index_function(mod, node, cls=None)
                globs.add(node.name)
            elif isinstance(node, ast.ClassDef):
                self._index_class(mod, node)
                globs.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                value = node.value
                for tgt in targets:
                    if not isinstance(tgt, ast.Name):
                        continue
                    globs.add(tgt.id)
                    if isinstance(value, (ast.Dict, ast.List, ast.Set,
                                          ast.ListComp, ast.DictComp,
                                          ast.SetComp)):
                        mutable.add(tgt.id)
                    if tgt.id == CONTEXT_NAME and isinstance(value, ast.Call):
                        self.context_fields[mod.name] = self._class_slots(
                            f"{mod.name}.{dotted_name(value.func)}")
                    if (tgt.id == self.config.worker_registry
                            and isinstance(value, ast.Dict)):
                        self.task_registries[mod.name] = {
                            (k.value if isinstance(k, ast.Constant) else None): v
                            for k, v in zip(value.keys, value.values)
                        }
        globs.update(top_aliases)
        self.module_globals[mod.name] = globs
        self.mutable_globals[mod.name] = mutable

    def _class_slots(self, qual):
        """String entries of the ``__slots__`` tuple of class *qual*."""
        for item in getattr(self.classes.get(qual), "body", ()):
            if isinstance(item, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__slots__"
                    for t in item.targets):
                return frozenset(
                    e.value for e in getattr(item.value, "elts", ())
                    if isinstance(e, ast.Constant))
        return frozenset()

    def _index_class(self, mod, node):
        qual = f"{mod.name}.{node.name}"
        self.classes[qual] = node
        self.class_bases[qual] = [dotted_name(b) for b in node.bases
                                  if dotted_name(b)]
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._index_function(mod, item, cls=node.name)

    def _index_function(self, mod, node, cls):
        qual = (f"{mod.name}.{cls}.{node.name}" if cls
                else f"{mod.name}.{node.name}")
        info = FunctionInfo(
            qualname=qual, module=mod.name, name=node.name, node=node,
            cls=cls,
            aliases=_collect_aliases(ast.walk(node), mod.package),
        )
        self.functions[qual] = info
        if cls:
            self.methods_by_name.setdefault(node.name, []).append(qual)
        # Nested defs are indexed too (under the outer function's name).
        for inner in ast.walk(node):
            if inner is not node and isinstance(
                    inner, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested = f"{qual}.{inner.name}"
                if nested not in self.functions:
                    self.functions[nested] = FunctionInfo(
                        qualname=nested, module=mod.name, name=inner.name,
                        node=inner, cls=cls, aliases=info.aliases,
                        nested=True)

    # -- name resolution ----------------------------------------------------------

    def resolve_export(self, qual, _depth=0):
        """Chase package re-exports: ``repro.groth16.prove`` ->
        ``repro.groth16.prover.prove``."""
        if _depth > 8 or qual is None:
            return qual
        if qual in self.functions or qual in self.classes:
            return qual
        prefix, _, leaf = qual.rpartition(".")
        alias = self.module_aliases.get(prefix, {}).get(leaf)
        if alias and alias != qual:
            return self.resolve_export(alias, _depth + 1)
        return qual

    def resolve_name(self, fn, name):
        """Resolve dotted *name* inside function *fn* to a qualname
        (best effort; ``None`` when it cannot be pinned down)."""
        head, _, rest = name.partition(".")
        mod = fn.module
        target = None
        if head == "self" and fn.cls and rest:
            meth, _, tail = rest.partition(".")
            base = f"{mod}.{fn.cls}.{meth}"
            return self.resolve_export(f"{base}.{tail}" if tail else base)
        if head in fn.aliases:
            target = fn.aliases[head]
        elif head in self.module_aliases.get(mod, {}):
            target = self.module_aliases[mod][head]
        elif f"{mod}.{head}" in self.functions or f"{mod}.{head}" in self.classes:
            target = f"{mod}.{head}"
        elif head in self.module_globals.get(mod, ()):
            target = f"{mod}.{head}"
        else:
            return None
        if rest:
            target = f"{target}.{rest}"
        return self.resolve_export(target)

    def is_module(self, qual):
        return qual in self.modules

    # -- slots --------------------------------------------------------------------

    def context_module(self, fn, expr):
        """The module whose run-context object *expr* names inside *fn*
        (``RUN`` however it was imported), else ``None``."""
        base = dotted_name(expr)
        resolved = self.resolve_name(fn, base) if base else None
        module, _, leaf = (resolved or "").rpartition(".")
        if leaf == CONTEXT_NAME and module in self.context_fields:
            return module
        return None

    def slot_read(self, fn, node):
        """The field name when the Load-context expression *node* reads a
        field of the run context (``RUN.metrics`` -> ``"metrics"``), else
        ``None``.  Methods of the object (``RUN.clear``) are not fields.
        """
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            module = self.context_module(fn, node.value)
            if module is not None \
                    and node.attr in self.context_fields[module]:
                return node.attr
        return None

    # -- call graph ---------------------------------------------------------------

    def call_targets(self, fn):
        """Set of function qualnames *fn* may call (conservative)."""
        cached = self._calls.get(fn.qualname)
        if cached is not None:
            return cached
        targets = set()
        for node in ast.walk(fn.node):
            if not isinstance(node, ast.Call):
                continue
            targets.update(self._resolve_call(fn, node))
        targets = frozenset(targets)
        self._calls[fn.qualname] = targets
        return targets

    def _resolve_call(self, fn, call):
        name = dotted_name(call.func)
        if name is not None:
            qual = self.resolve_name(fn, name)
            if qual in self.functions:
                return {qual}
            if qual in self.classes:
                init = f"{qual}.__init__"
                return {init} if init in self.functions else set()
        # Fall back: method-name matching for attribute calls on
        # receivers we cannot type (pool.map, policy.execute_stage, ...).
        if isinstance(call.func, ast.Attribute):
            meth = call.func.attr
            if meth in GENERIC_METHODS or meth.startswith("__"):
                return set()
            return set(self.methods_by_name.get(meth, ()))
        return set()

    # -- reachability -------------------------------------------------------------

    def worker_roots(self):
        """Qualnames of functions registered in a worker TASKS dict."""
        roots = set()
        for mod_name, registry in self.task_registries.items():
            mod = self.modules[mod_name]
            fake = FunctionInfo(qualname=f"{mod_name}.<registry>",
                                module=mod_name, name="<registry>",
                                node=mod.tree)
            for value in registry.values():
                name = dotted_name(value)
                if name is None:
                    continue
                qual = self.resolve_name(fake, name)
                if qual in self.functions:
                    roots.add(qual)
        return roots

    def stage_roots(self):
        """Qualnames matching the configured stage-root patterns."""
        patterns = self.config.stage_roots
        return {q for q in self.functions if match_any(q, patterns)}

    def reachable_from(self, roots):
        """Transitive closure of *roots* over the call graph."""
        key = frozenset(roots)
        cached = self._reach_cache.get(key)
        if cached is not None:
            return cached
        seen = set(roots)
        frontier = list(roots)
        while frontier:
            qual = frontier.pop()
            fn = self.functions.get(qual)
            if fn is None:
                continue
            for callee in self.call_targets(fn):
                if callee not in seen:
                    seen.add(callee)
                    frontier.append(callee)
        self._reach_cache[key] = seen
        return seen

    def worker_reachable(self):
        return self.reachable_from(self.worker_roots())

    def stage_reachable(self):
        """Worker tasks run stage work too, so both root sets count."""
        return self.reachable_from(self.stage_roots() | self.worker_roots())

    # -- class hierarchy ----------------------------------------------------------

    def subclasses_of(self, base_names):
        """Qualnames (and bare names) of classes deriving — transitively —
        from any name in *base_names* (matched on the base's last path
        component, so ``errors.ReproError`` and ``ReproError`` both hit)."""
        base_leaves = {b.rpartition(".")[2] for b in base_names}
        out = set()
        changed = True
        while changed:
            changed = False
            for qual, bases in self.class_bases.items():
                if qual in out:
                    continue
                for b in bases:
                    leaf = b.rpartition(".")[2]
                    if leaf in base_leaves:
                        out.add(qual)
                        base_leaves.add(qual.rpartition(".")[2])
                        changed = True
                        break
        return out
