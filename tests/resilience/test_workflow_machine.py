"""The workflow fault machine: every fault at every site of the five-stage
pipeline ends recovered or typed, and the recovery counters say how.

:class:`WorkflowMachine` drives one ``Workflow(retry=RetryPolicy(
sleep=None))`` through hypothesis-chosen steps: arm a fault
(site x kind x hit), run the next stage, run a stage before its
prerequisite, round-trip the proof, the vk or the pk through
``groth16/serialize.py`` under ``with_retry``.  Its contract, checked
after every step:

- whatever escapes a step is a ``ReproError``, and a ``StageError``'s
  ``fault`` is typed too (a bare ``KeyError`` in a stage body is
  wrapped in a ``StageError``, and the wrapper alone proves nothing);
- a run that reached ``verifying`` accepted its proof;
- ``repro_resilience_faults_injected_total`` is the number of fired
  specs, ``repro_resilience_retries_total`` the number of retryable
  faults the retry ladder absorbed, ``repro_resilience_giveups_total``
  the number of steps that raised, and
  ``repro_resilience_msm_fallbacks_total`` the number of transient MSM
  faults the prover degraded around instead.

:class:`PooledWorkflowMachine` runs the same machine on two worker
processes with fan-out thresholds low enough that the tiny circuit's
MSMs and NTTs really go to the workers, so armed kernel faults fire
inside them.  The pinned cases below replay fixed step sequences through
the same contract.

Replay a failure with ``--hypothesis-seed=<seed>``, or put the printed
``@reproduce_failure(...)`` decorator on the machine class.
"""

import multiprocessing

import pytest
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro import groth16
from repro.curves import BN128
from repro.groth16 import serialize
from repro.harness.circuits import build_workload
from repro.obs import metrics
from repro.parallel import WorkerPool
from repro.resilience import faults
from repro.resilience.errors import (
    ReproError,
    StageError,
    StageOrderError,
    classify,
)
from repro.resilience.retry import RetryPolicy, with_retry
from repro.workflow import STAGES, Workflow
from tests.stateful import arm, machine_settings, replay, story

SIZE = 8

#: Fan-out thresholds that send the SIZE-constraint circuit's kernels to
#: the workers.
LOW = dict(min_msm=2, min_ntt=4, min_batch=2)

#: Artifact attributes each stage needs (``Workflow._require``).
NEEDS = {"compile": (), "setup": ("circuit",), "witness": ("circuit",),
         "proving": ("pk", "witness"), "verifying": ("proof",)}

#: The round trips, each ``*_to_bytes`` then ``*_from_bytes``: two checks
#: of the artifact's ``serialize:*`` site.
CODECS = {
    "proof": (serialize.proof_to_bytes, serialize.proof_from_bytes),
    "vk": (serialize.vk_to_bytes, serialize.vk_from_bytes),
    "pk": (serialize.pk_to_bytes, serialize.pk_from_bytes),
}


def _outcome(error):
    """A step's outcome: ``recovered``, ``stage-failed`` (a
    ``StageError``) or ``typed-failure`` (any other ``ReproError``)."""
    if error is None:
        return "recovered"
    return "stage-failed" if isinstance(error, StageError) else "typed-failure"


class WorkflowMachine(RuleBasedStateMachine):
    workers = None

    def __init__(self, log=None):
        super().__init__()
        self.log = [] if log is None else log
        self.registry = metrics.MetricsRegistry()
        self.injector = faults.FaultInjector([])
        self.expected = {"retries": 0, "giveups": 0, "msm_fallbacks": 0}
        self.wf = Workflow(BN128, *build_workload("exponentiate", BN128, SIZE),
                           seed=0, workers=self.workers,
                           retry=RetryPolicy(sleep=None))
        if self.workers:
            self.wf._pool = WorkerPool(self.workers, **LOW)
        self.next = 0

    def teardown(self):
        self.wf.close()

    # -- the step runner --------------------------------------------------------

    def _call(self, fn):
        """Run *fn* with the machine's registry and injector installed,
        check what it raised, and book the recovery the counters must
        show.  Returns ``(value, error, fired specs)``."""
        armed = [spec for spec in self.injector.plan if not spec.fired]
        value = error = None
        with metrics.collecting(self.registry), \
                faults.injecting(self.injector):
            try:
                value = fn()
            except Exception as exc:  # noqa: BLE001 - the contract is checked here
                error = exc
        fired = [spec for spec in armed if spec.fired]
        final = getattr(error, "fault", error)
        if error is not None:
            assert isinstance(error, ReproError), f"untyped escape: {error!r}"
            assert classify(final) != "untyped", error.one_line()
        # A transient MSM fault degrades to the naive kernel; every other
        # fired fault ended one attempt, and each such attempt but an
        # injected last one was retried.
        degraded = sum(spec.site == "msm:pippenger"
                       and spec.kind == "transient" for spec in fired)
        lost = len(fired) - degraded
        ended_by_fault = error is not None \
            and not isinstance(final, StageOrderError)
        self.expected["retries"] += lost - ended_by_fault
        self.expected["giveups"] += error is not None
        self.expected["msm_fallbacks"] += degraded
        return value, error, fired

    def _out_of_order(self):
        return [stage for stage, needs in NEEDS.items()
                if any(getattr(self.wf, name) is None for name in needs)]

    # -- rules ------------------------------------------------------------------

    @rule(site=st.sampled_from(faults.SITES),
          kind=st.sampled_from(sorted(faults.KINDS)),
          offset=st.integers(1, 2))
    def arm(self, site, kind, offset):
        """Arm *kind* at the *offset*-th next check of *site*."""
        hit = self.injector.hits.get(site, 0) + offset
        self.injector.plan.append(faults.FaultSpec(site, kind, hit=hit))
        self.log.append(("arm", site, kind, hit))

    @precondition(lambda self: self.next < len(STAGES))
    @rule()
    def run_next_stage(self):
        stage = STAGES[self.next]
        _, error, _ = self._call(lambda: self.wf.run_stage(stage))
        if error is None:
            self.next += 1
        else:
            assert isinstance(error, StageError) and error.stage == stage
        self.log.append(("stage", stage, _outcome(error))
                        + ((classify(error.fault), error.attempts)
                           if error else ()))

    @precondition(lambda self: self._out_of_order())
    @rule(stage=st.sampled_from(STAGES[1:]))
    def run_out_of_order(self, stage):
        """Run a stage whose prerequisite is missing (*stage* if it is one,
        else the first such stage)."""
        missing = self._out_of_order()
        stage = stage if stage in missing else missing[0]
        _, error, fired = self._call(lambda: self.wf.run_stage(stage))
        # The order error, unless an armed fault at the stage boundary
        # ended the attempts first.
        assert isinstance(error, StageError) and error.stage == stage
        assert isinstance(error.fault, StageOrderError) or fired
        self.log.append(("order", stage, classify(error.fault)))

    @precondition(lambda self: self.wf.pk is not None)
    @rule(name=st.sampled_from(sorted(CODECS)))
    def roundtrip(self, name):
        """Round-trip an artifact (*name* once it exists, else the vk)."""
        name = name if getattr(self.wf, name) is not None else "vk"
        to_bytes, from_bytes = CODECS[name]
        artifact = getattr(self.wf, name)
        back, error, _ = self._call(lambda: with_retry(
            lambda: from_bytes(to_bytes(artifact)), self.wf.retry))
        if error is None:
            assert to_bytes(back) == to_bytes(artifact)
        self.log.append(("roundtrip", name, _outcome(error),
                         classify(error) if error else None))

    # -- the contract -----------------------------------------------------------

    @invariant()
    def contract(self):
        count = self.registry.counter
        assert count("repro_resilience_faults_injected_total") == \
            sum(spec.fired for spec in self.injector.plan)
        for name, value in self.expected.items():
            assert count(f"repro_resilience_{name}_total") == value, name
        if self.wf.accepted is not None:
            assert self.wf.accepted is True, "a completed run was rejected"


class PooledWorkflowMachine(WorkflowMachine):
    workers = 2


TestWorkflowMachine = WorkflowMachine.TestCase
TestWorkflowMachine.settings = machine_settings(max_examples=8, steps=20)
TestPooledWorkflowMachine = PooledWorkflowMachine.TestCase
TestPooledWorkflowMachine.settings = machine_settings(max_examples=4, steps=16)


# -- pinned cases --------------------------------------------------------------------

STAGE_SITES = [site for site in faults.SITES if site.startswith("stage:")]
KERNEL_SITES = ["msm:pippenger", "ntt:transform"]
HOT_SITES = KERNEL_SITES + [f"serialize:{name}" for name in CODECS]


NEXT = ("run_next_stage", {})
RUN_ALL = (NEXT,) * len(STAGES)


def roundtrip(name):
    return ("roundtrip", dict(name=name))


def test_every_drawn_site_has_a_rule_that_reaches_it():
    # serialize:pk too: the round-trip rule covers the proving key.
    assert set(faults.SITES) == set(STAGE_SITES) | set(HOT_SITES)


def test_fault_free_run_recovers():
    m = replay(WorkflowMachine(), *RUN_ALL, *map(roundtrip, CODECS))
    assert m.wf.accepted is True
    assert [entry[2] for entry in m.log] == ["recovered"] * 8
    assert m.registry.counter("repro_resilience_retries_total") == 0


@pytest.mark.parametrize("site", STAGE_SITES)
@pytest.mark.parametrize("kind", sorted(faults.KINDS))
def test_every_kind_at_every_stage(site, kind):
    m = replay(WorkflowMachine(), arm(site, kind), *RUN_ALL)
    stage = site.partition(":")[2]
    first = next(entry for entry in m.log if entry[:2] == ("stage", stage))
    if kind == "oom":
        # Fails fast, once: no retry of a resource fault.
        assert first[2:] == ("stage-failed", "resources", 1)
        assert m.registry.counter("repro_resilience_retries_total") == 0
    else:
        # One retryable fault against a 3-attempt budget is absorbed.
        assert m.wf.accepted is True
        assert m.registry.counter("repro_resilience_retries_total") == 1
        assert m.registry.counter(
            f"repro_resilience_stage_{stage}_retries_total") == 1


@pytest.mark.parametrize("site", HOT_SITES)
@pytest.mark.parametrize("kind", sorted(faults.KINDS))
def test_every_kind_at_every_hot_site(site, kind):
    m = replay(WorkflowMachine(), arm(site, kind), *RUN_ALL,
               *map(roundtrip, CODECS))
    assert m.injector.plan[0].fired
    failed = [entry for entry in m.log[1:] if entry[2] != "recovered"]
    count = m.registry.counter
    if kind == "oom":
        # Fails fast, once: a kernel fault ends the proving stage, a codec
        # fault its round trip; the next attempt finds the fault spent.
        assert failed == [
            ("stage", "proving", "stage-failed", "resources", 1)
            if site in KERNEL_SITES else
            ("roundtrip", site.partition(":")[2], "typed-failure",
             "resources")]
        assert count("repro_resilience_retries_total") == 0
    else:
        # A transient MSM fault degrades to the naive kernel; every other
        # retryable fault costs one retry.
        degraded = site == "msm:pippenger" and kind == "transient"
        assert failed == [] and m.wf.accepted is True
        assert count("repro_resilience_retries_total") == (not degraded)
        assert count("repro_resilience_msm_fallbacks_total") == degraded


def test_msm_fault_degrades_and_is_not_retried():
    m = replay(WorkflowMachine(), arm("msm:pippenger"), *RUN_ALL)
    assert m.registry.counter("repro_resilience_msm_fallbacks_total") == 1
    assert m.registry.counter("repro_resilience_retries_total") == 0
    assert m.wf.accepted is True


@pytest.mark.parametrize("name", sorted(CODECS))
def test_serialize_fault_at_the_second_hit_is_retried(name):
    # *_to_bytes is hit 1, *_from_bytes hit 2: the retry repeats both.
    m = replay(WorkflowMachine(), *RUN_ALL,
               arm(f"serialize:{name}", "corrupt", offset=2), roundtrip(name))
    assert m.injector.plan[0].fired
    assert m.log[-1] == ("roundtrip", name, "recovered", None)
    assert m.registry.counter("repro_resilience_retries_total") == 1


def test_a_resource_fault_in_a_round_trip_is_a_typed_failure():
    m = replay(WorkflowMachine(), *RUN_ALL, arm("serialize:pk", "oom"),
               roundtrip("pk"))
    assert m.log[-1] == ("roundtrip", "pk", "typed-failure", "resources")
    assert m.registry.counter("repro_resilience_giveups_total") == 1


def test_exhausted_retries_end_in_a_stage_error():
    m = replay(WorkflowMachine(), NEXT, arm("stage:setup"),
               arm("stage:setup", offset=2),
               arm("stage:setup", "timeout", offset=3), NEXT)
    assert m.log[-1] == ("stage", "setup", "stage-failed", "timeout", 3)
    assert m.registry.counter("repro_resilience_retries_total") == 2
    # Run again, the stage recovers: its faults are spent.
    replay(m, NEXT)
    assert m.log[-1] == ("stage", "setup", "recovered")


@pytest.mark.parametrize("stage", STAGES[1:])
def test_a_stage_out_of_order_raises_the_order_error(stage):
    m = replay(WorkflowMachine(),
               ("run_out_of_order", dict(stage=stage)))
    assert m.log == [("order", stage, "order")]
    assert m.registry.counter("repro_resilience_retries_total") == 0


def test_a_boundary_fault_before_the_order_error_is_retried():
    m = replay(WorkflowMachine(), arm("stage:proving"),
               ("run_out_of_order", dict(stage="proving")))
    assert m.log[-1] == ("order", "proving", "order")
    assert m.registry.counter("repro_resilience_retries_total") == 1


def test_a_rejected_run_breaks_the_contract(monkeypatch):
    # All five stages ran, and the proof did not verify.
    monkeypatch.setattr(groth16, "verify", lambda *args: False)
    with pytest.raises(AssertionError, match="rejected"):
        replay(WorkflowMachine(), *RUN_ALL)


def test_an_untyped_fault_in_a_stage_breaks_the_contract(monkeypatch):
    # The retry ladder wraps a bare exception in a StageError; the
    # contract reads the wrapped fault.
    def broken():
        raise KeyError("bug")

    m = WorkflowMachine()
    monkeypatch.setattr(m.wf, "_stage_compile", broken)
    with pytest.raises(AssertionError, match="untyped"):
        replay(m, NEXT)


def test_a_kernel_fault_fires_inside_a_worker():
    m = replay(PooledWorkflowMachine(), arm("msm:pippenger"),
               arm("ntt:transform", "timeout"), *RUN_ALL)
    assert all(spec.fired for spec in m.injector.plan)
    assert m.wf.accepted is True
    assert m.registry.counter("repro_parallel_ntt_total") > 0
    assert m.wf._pool is None  # closed by the teardown


def test_the_same_seed_tells_the_same_story():
    first = story(WorkflowMachine, 4)
    assert story(WorkflowMachine, 4) == first
    assert story(WorkflowMachine, 5) != first


@pytest.mark.parametrize("seed_value", range(4))
@pytest.mark.parametrize("machine_cls", [WorkflowMachine,
                                         PooledWorkflowMachine],
                         ids=["serial", "pooled"])
def test_a_seeded_run_holds_the_contract(machine_cls, seed_value):
    # Short runs of the seeds CI replays at full length: the contract
    # holds after every step, and every teardown reaps its workers.
    assert story(machine_cls, seed_value, max_examples=1, steps=8)
    assert multiprocessing.active_children() == []
