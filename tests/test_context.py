"""The run context's contract, once for all seven fields, and the layering
it buys (docs/ARCHITECTURE.md, "Run context")."""

import ast
from contextlib import ExitStack

import pytest

from repro.analyze.code import CodeIndex, CodelintConfig, default_root, load_tree
from repro.context import RUN, RunContext
from repro.obs.metrics import collecting
from repro.obs.spans import recording
from repro.obs.worker import collecting_tasks
from repro.parallel.pool import WorkerPool, using
from repro.perf.trace import Tracer, tracing
from repro.resilience.errors import PoolStateError
from repro.resilience.faults import injecting
from repro.resilience.retry import deadline_scope

#: field -> (installer, the error a second install raises; ``None``: it nests).
INSTALLERS = {
    "tracer": (lambda: tracing(Tracer()), RuntimeError),
    "metrics": (collecting, RuntimeError),
    "spans": (recording, RuntimeError),
    "tasks": (collecting_tasks, RuntimeError),
    "pool": (lambda: using(WorkerPool(1)), PoolStateError),
    "faults": (lambda: injecting([]), RuntimeError),
    "deadline": (lambda: deadline_scope(60), None),
}
FIELDS = sorted(INSTALLERS)


def test_every_field_has_an_installer():
    assert set(INSTALLERS) == set(RunContext.__slots__)


@pytest.mark.parametrize("field", FIELDS)
class TestInstallerContract:
    def test_none_by_default(self, field):
        assert getattr(RUN, field) is None

    def test_visible_inside_none_after(self, field):
        install, _ = INSTALLERS[field]
        with install() as value:
            assert value is not None
            assert getattr(RUN, field) is value
        assert getattr(RUN, field) is None

    def test_restored_when_the_body_raises(self, field):
        install, _ = INSTALLERS[field]
        with pytest.raises(KeyError):
            with install():
                raise KeyError("boom")
        assert getattr(RUN, field) is None

    def test_second_install(self, field):
        install, error = INSTALLERS[field]
        with install() as outer:
            if error is None:  # nests: the inner one shadows, the outer returns
                with install() as inner:
                    assert getattr(RUN, field) is inner is not outer
            else:
                with pytest.raises(error, match="already active"):
                    with install():
                        pass
            assert getattr(RUN, field) is outer
        assert getattr(RUN, field) is None


def test_the_same_pool_re_enters():
    with WorkerPool(1) as pool:
        with using(pool), using(pool):
            assert RUN.pool is pool
        assert RUN.pool is None


def _everything_installed(pool):
    """Context manager stack installing all seven fields around *pool*."""
    stack = ExitStack()
    stack.enter_context(using(pool))
    for field in FIELDS:
        if field != "pool":
            stack.enter_context(INSTALLERS[field][0]())
    return stack


class TestWhatATaskSees:
    """``selftest_context`` reports ``id()`` of each attached field where
    the task runs; a forked worker inherits the parent's objects at the
    same addresses, so an id equal to the parent's means it leaked."""

    def test_forked_worker_starts_from_a_cleared_context(self):
        with WorkerPool(2) as pool, _everything_installed(pool):
            parent = {f: id(getattr(RUN, f)) for f in RunContext.__slots__}
            reports, _ = pool.map("selftest_context", [{}, {}])
        for seen in reports:
            assert set(seen) == set(RunContext.__slots__)
            for field in ("tracer", "tasks", "pool", "faults"):
                assert seen[field] is None, field
            # The envelope builds these three afresh for the task (a
            # registry and recorder because the parent collects tasks, the
            # deadline from the remaining seconds it was shipped).
            for field in ("metrics", "spans", "deadline"):
                assert seen[field] not in (None, parent[field]), field

    def test_untelemetered_worker_sees_nothing(self):
        with WorkerPool(2) as pool, using(pool), collecting(), recording(), \
                tracing(Tracer()), injecting([]):
            reports, _ = pool.map("selftest_context", [{}, {}])
        assert all(v is None for seen in reports for v in seen.values())

    def test_one_worker_task_starts_from_a_cleared_context(self):
        # One worker forks like many: its task sees none of the parent's
        # fields, the pool included.
        with WorkerPool(1) as pool, using(pool), collecting(), recording(), \
                tracing(Tracer()), injecting([]):
            (seen,), _ = pool.map("selftest_context", [{}])
        assert set(seen) == set(RunContext.__slots__)
        assert all(v is None for v in seen.values())


@pytest.fixture(scope="module")
def index():
    return CodeIndex(load_tree(default_root()), CodelintConfig())


class TestOneWriter:
    def test_no_module_keeps_a_slot_of_its_own(self, index):
        owners = [mod for mod, names in index.module_globals.items()
                  if {"CURRENT", "DEADLINE"} & names]
        assert owners == []

    def test_only_the_context_module_stores_to_run(self, index):
        writers = set()
        for fn in index.functions.values():
            for node in ast.walk(fn.node):
                targets = list(getattr(node, "targets", ()))
                if isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                    targets.append(node.target)
                bases = [t.value for t in targets
                         if isinstance(t, ast.Attribute)]
                if isinstance(node, ast.Call) and node.args \
                        and getattr(node.func, "id", None) == "setattr":
                    bases.append(node.args[0])
                if any(index.context_module(fn, b) for b in bases):
                    writers.add(fn.qualname)
        assert writers == {"repro.context.scoped"}


class TestLayering:
    """The arithmetic core is instrumented through ``repro.context`` and
    imports none of the instruments, at module or function level."""

    CORE = ("repro.fields", "repro.curves", "repro.msm", "repro.poly",
            "repro.qap")
    INSTRUMENTS = ("repro.obs", "repro.perf.trace", "repro.resilience.faults",
                   "repro.resilience.retry")

    @staticmethod
    def imports_of(index, module):
        targets = set(index.module_aliases[module].values())
        for fn in index.functions.values():
            if fn.module == module:
                targets.update(fn.aliases.values())
        return targets

    @staticmethod
    def under(name, prefixes):
        return any(name == p or name.startswith(p + ".") for p in prefixes)

    def test_core_imports_no_instrument(self, index):
        core = [m for m in index.modules if self.under(m, self.CORE)]
        assert len(core) > 15
        offending = {(m, t) for m in core for t in self.imports_of(index, m)
                     if self.under(t, self.INSTRUMENTS)}
        assert offending == set()

    def test_context_is_a_leaf(self, index):
        assert not any(self.under(t, ("repro",))
                       for t in self.imports_of(index, "repro.context"))
