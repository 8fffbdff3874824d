"""The run context's contract, once for all seven fields, its one tracer
gate (``region``), and the layering it buys (docs/ARCHITECTURE.md, "Run
context")."""

import ast
import hashlib
import random
from contextlib import ExitStack

import pytest

from repro.analyze.code import CodeIndex, CodelintConfig, default_root, load_tree
from repro.circuit import CircuitBuilder, compile_circuit, gadgets
from repro.context import RUN, RunContext, region
from repro.curves import BN128
from repro.groth16 import generate_witness, public_inputs
from repro.obs.metrics import collecting
from repro.obs.spans import recording
from repro.obs.worker import collecting_tasks
from repro.parallel.pool import WorkerPool, using
from repro.perf.trace import Tracer, tracing
from repro.plonk import plonk_prove, plonk_setup, plonk_verify
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


class TestRegion:
    """``region`` is the one tracer gate: detached, a shared no-op; attached,
    exactly one child of the innermost open region."""

    def test_detached_is_the_shared_noop(self):
        first = region("a")
        second = region("b", parallel=True, items=3, load_scale=2.0)
        assert first is second
        with first as value:
            assert value is None
        assert all(getattr(RUN, f) is None for f in RunContext.__slots__)

    def test_attached_opens_one_child_of_the_innermost(self):
        tracer = Tracer()
        with tracing(tracer), tracer.region("outer", parallel=False) as outer:
            with region("inner", parallel=True, items=7,
                        load_scale=2.0, store_scale=0.25) as rec:
                tracer.op("bigint_mul_4")
        assert tracer.root.children == [outer]
        assert outer.children == [rec]
        assert (rec.name, rec.parallel, rec.depth, rec.items) == \
            ("inner", True, outer.depth + 1, 7)
        assert (rec.load_scale, rec.store_scale) == (2.0, 0.25)
        assert rec.counts == {"bigint_mul_4": 1} and not outer.counts

    def test_parallel_unset_inherits(self):
        tracer = Tracer()
        with tracing(tracer), region("outer", parallel=True, items=2):
            with region("inner") as rec:
                pass
        assert rec.parallel is True and rec.items == 1


#: ``(n, sha256)`` of a PLONK proof (commitments' affine coordinates, then
#: the sorted evaluations) for the lowered ``exponentiate(gates)`` circuit,
#: quotient split in three.  Any coset above deg t yields the same ``t``, so
#: the proof must not move when the quotient's evaluation domain does.
PLONK_PROOF_DIGESTS = {
    3: (4, "db38c73e08c3f762130a4c446833d42e30aba4131261e3870147646dd279c428"),
    7: (8, "03665cc94abfaa459c56ab311e7d6a955c719984472ce253f8edf1af0e3e2902"),
    127: (128, "ad1c802e5c33b4c42a59deba1861eea250d33177a160a6c2d8326ea579648bf2"),
}


@pytest.mark.parametrize("gates", sorted(PLONK_PROOF_DIGESTS))
def test_plonk_proof_bytes_are_pinned(gates):
    b = CircuitBuilder("pow", BN128.fr)
    b.output(gadgets.exponentiate(b, b.private_input("x"), gates), "y")
    circuit = compile_circuit(b)
    pre = plonk_setup(BN128, circuit, random.Random(2))
    witness = generate_witness(circuit, {"x": 3})
    proof = plonk_prove(pre, witness, random.Random(4))
    assert plonk_verify(pre, proof, public_inputs(circuit, witness))
    h = hashlib.sha256()
    for point in (proof.commit_a, proof.commit_b, proof.commit_c,
                  proof.commit_z, proof.commit_t_lo, proof.commit_t_mid,
                  proof.commit_t_hi, proof.witness_zeta,
                  proof.witness_zeta_omega):
        h.update(repr(point.to_affine()).encode())
    h.update(repr(sorted(proof.evals.items())).encode())
    assert (pre.n, h.hexdigest()) == PLONK_PROOF_DIGESTS[gates]


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
