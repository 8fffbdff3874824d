"""The service fault machine: under faults, crashes, expiring deadlines,
refused payloads and drains, every request the proving service admits
resolves typed, with phases that add up, and nothing is left behind.

:class:`ServiceMachine` drives one ``ProvingService`` whose circuit
breaker reads an injected clock, so no rule sleeps.  Each rule is one
step of the service's life, and the event loop runs until every request
of the step has resolved:

- submit a burst of proves, or of verifies: the sample proof, a
  poisoned one (``verify_payload(bad=True)``), publics of the wrong
  arity or unreduced (refused at admission with ``error[corrupt]``); a
  burst larger than the queue cap sheds the rest with
  ``error[admission]``;
- submit a request whose deadline expires before it runs;
- arm a fault at ``SERVE_SITES`` or at the MSM/NTT kernels;
- make the next pool jobs die with a ``WorkerCrash``, and advance the
  breaker's clock past its cooldown (pool-backed machine only, which
  also starts with its breaker open or closed);
- drain, with requests still queued, then start again.

The contract, on every resolution: the result is typed
(``JobResult.resolved_typed``) and its phases sum to its ``total_s``.
After every step: ``outstanding`` is 0 (no lost future), the breaker
holds no half-open probe (no pool job is in flight between steps), and
``repro_resilience_faults_injected_total`` is the number of fired specs.

:class:`PooledServiceMachine` serves through two worker processes with
fan-out thresholds low enough that the MSMs and batch verifies of the
small circuit run in them.  Replay a failure with
``--hypothesis-seed=<seed>``, or put the printed
``@reproduce_failure(...)`` decorator on the machine class.
"""

import asyncio
import multiprocessing

import pytest
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.obs import metrics
from repro.parallel import WorkerPool
from repro.resilience import faults
from repro.resilience.errors import (
    AdmissionError,
    ArtifactCorruption,
    ReproError,
    WorkerCrash,
)
from repro.resilience.retry import RetryPolicy
from repro.serve import SERVE_SITES, CircuitBreaker, JobResult, ProvingService
from repro.serve.jobs import PHASE_TOLERANCE_S
from tests.conftest import UNREDUCED, unreduced
from tests.stateful import arm, machine_settings, replay, story

SIZE = 8

#: The breaker's cooldown on the machine's clock; advancing the clock by
#: this much moves an open breaker to half-open.
COOLDOWN_S = 10.0

#: Where the machine arms faults: the service's compute sites and the
#: kernels a prove reaches.
SITES = SERVE_SITES + ("msm:pippenger", "ntt:transform")

#: Fan-out thresholds that send the small circuit's kernels to the workers.
LOW = dict(min_msm=2, min_ntt=4, min_batch=2)

#: Verify payloads admission refuses; "good" and "bad" are accepted and
#: rejected.
REFUSED = ("arity",) + UNREDUCED

#: Seconds a step may take before its requests count as lost.
STEP_TIMEOUT_S = 60.0


def _summary(outcome):
    """What the story log keeps of one request's outcome."""
    if isinstance(outcome, ReproError):
        return outcome.code
    return (outcome.status, outcome.error_code, outcome.accepted)


class ServiceMachine(RuleBasedStateMachine):
    workers = None

    def __init__(self, log=None):
        super().__init__()
        self.log = [] if log is None else log
        self.now = 0.0
        self.crashes = 0
        self.registry = metrics.MetricsRegistry()
        self.injector = faults.FaultInjector([])
        self.loop = asyncio.new_event_loop()
        self.svc = ProvingService(
            size=SIZE, workers=self.workers, seed=0, max_queue=2,
            retry=RetryPolicy(sleep=None),
            breaker=CircuitBreaker(threshold=2, cooldown_s=COOLDOWN_S,
                                   clock=lambda: self.now))
        compute = self.svc._compute

        def crashing(kind, jobs, use_pool, seed):
            if use_pool and self.crashes:
                self.crashes -= 1
                raise WorkerCrash("injected worker crash", task=kind)
            return compute(kind, jobs, use_pool, seed)

        self.svc._compute = crashing
        self._start()

    def _start(self):
        self.loop.run_until_complete(self.svc.start())
        if self.workers:
            # Not forked yet: swapping it costs nothing.
            self.svc._pool.close()
            self.svc._pool = WorkerPool(self.workers, **LOW)

    def teardown(self):
        try:
            self.loop.run_until_complete(self.svc.drain())
        finally:
            self.loop.close()

    # -- the step runner --------------------------------------------------------

    def _step(self, body):
        """Run the coroutine *body* with the machine's registry and
        injector installed; a step that outlives STEP_TIMEOUT_S lost a
        request."""
        with metrics.collecting(self.registry), \
                faults.injecting(self.injector):
            try:
                return self.loop.run_until_complete(
                    asyncio.wait_for(body, STEP_TIMEOUT_S))
            except asyncio.TimeoutError:
                raise AssertionError(
                    f"a request never resolved: outstanding="
                    f"{self.svc.outstanding}") from None

    def _submit(self, kind, **kwargs):
        """Admit one request: its future, or the typed error admission
        raised (shed, or a refused payload)."""
        try:
            return self.svc.submit_nowait(kind, **kwargs)
        except ReproError as exc:
            assert exc.code in ("admission", "corrupt"), exc.one_line()
            return exc

    def _burst(self, requests):
        """Submit *requests* ``(kind, kwargs)`` back to back, then wait
        for each; returns one outcome per request, each checked."""
        async def body():
            admitted = [self._submit(kind, **kwargs)
                        for kind, kwargs in requests]
            return [await a if isinstance(a, asyncio.Future) else a
                    for a in admitted]

        outcomes = self._step(body())
        for outcome in outcomes:
            self._check(outcome)
        return outcomes

    @staticmethod
    def _check(outcome):
        """The contract on one resolution."""
        if isinstance(outcome, JobResult):
            assert outcome.resolved_typed, outcome
            assert outcome.phases_consistent(tol=PHASE_TOLERANCE_S), (
                outcome.request_id, outcome.status, outcome.phases,
                outcome.total_s)
            if outcome.status == "ok" and outcome.kind == "prove":
                assert outcome.proof_bytes > 0

    def _payload(self, name):
        if name in ("good", "bad"):
            return self.svc.verify_payload(bad=name == "bad")
        proof, publics = self.svc.verify_payload()
        if name == "arity":
            return proof, publics + [0]
        return proof, unreduced(publics, self.svc._curve_obj.fr.modulus,
                                name)

    # -- rules ------------------------------------------------------------------

    @initialize(tripped=st.booleans())
    def breaker_history(self, tripped):
        """Start with a breaker that crashes already opened, or a closed
        one (pool-backed machine only: a serial service never asks it)."""
        if self.workers and tripped:
            for _ in range(self.svc.breaker.threshold):
                self.svc.breaker.record_failure()
        self.log.append(("breaker", self.svc.breaker.state))

    @rule(n=st.integers(1, 3))
    def submit_prove(self, n):
        outcomes = self._burst([("prove", {})] * n)
        self.log.append(("prove", tuple(map(_summary, outcomes))))

    @rule(names=st.lists(st.one_of(st.sampled_from(("good", "bad")),
                                   st.sampled_from(REFUSED)),
                         min_size=1, max_size=3))
    def submit_verify(self, names):
        outcomes = self._burst([("verify", {"payload": self._payload(name)})
                                for name in names])
        for name, outcome in zip(names, outcomes):
            if isinstance(outcome, AdmissionError):
                continue  # shed: the queue was full
            if name in ("good", "bad"):
                # A fault may fail the batch; it never flips a verdict.
                assert isinstance(outcome, JobResult)
                if outcome.status == "ok":
                    assert outcome.accepted is (name == "good"), name
            else:
                assert isinstance(outcome, ArtifactCorruption), name
        self.log.append(("verify", names, tuple(map(_summary, outcomes))))

    @rule(kind=st.sampled_from(("prove", "verify")))
    def submit_expiring(self, kind):
        (outcome,) = self._burst([(kind, {"deadline_s": 0.0})])
        assert (outcome.status, outcome.error_code) == ("timeout", "timeout")
        assert outcome.attempts == 0
        self.log.append(("expiring", kind, _summary(outcome)))

    @rule(site=st.sampled_from(SITES),
          kind=st.sampled_from(sorted(faults.KINDS)),
          offset=st.integers(1, 2))
    def arm(self, site, kind, offset):
        """Arm *kind* at the *offset*-th next check of *site*."""
        hit = self.injector.hits.get(site, 0) + offset
        self.injector.plan.append(faults.FaultSpec(site, kind, hit=hit))
        self.log.append(("arm", site, kind, hit))

    @precondition(lambda self: self.workers and not self.crashes)
    @rule(n=st.integers(1, 3))
    def crash(self, n):
        """The next *n* attempts on the pool die with a ``WorkerCrash``."""
        self.crashes += n
        self.log.append(("crash", n))

    @precondition(lambda self: self.svc.breaker.state == "open")
    @rule()
    def advance_clock(self):
        """Let the open breaker's cooldown pass: the next pool job probes."""
        self.now += COOLDOWN_S
        self.log.append(("clock", self.svc.breaker.state))

    @rule(queued=st.integers(0, 2), timeout=st.sampled_from((None, 0.0)))
    def drain(self, queued, timeout):
        """Drain with *queued* proves admitted (a 0 s *timeout* flushes
        the ones still queued as ``error[timeout]``), then start again."""
        async def body():
            admitted = [self.svc.submit_nowait("prove")
                        for _ in range(queued)]
            draining = asyncio.ensure_future(self.svc.drain(timeout))
            await asyncio.sleep(0)
            with pytest.raises(AdmissionError):
                self.svc.submit_nowait("verify")
            await draining
            assert all(future.done() for future in admitted)
            return [future.result() for future in admitted]

        outcomes = self._step(body())
        for outcome in outcomes:
            self._check(outcome)
        assert self.svc.outstanding == 0
        self.log.append(("drain", timeout, tuple(map(_summary, outcomes))))
        self._start()

    # -- the contract -----------------------------------------------------------

    @invariant()
    def contract(self):
        assert self.svc.outstanding == 0
        assert not self.svc.breaker._probing, \
            "a half-open probe is held with no pool job in flight"
        assert self.registry.counter(
            "repro_resilience_faults_injected_total") == \
            sum(spec.fired for spec in self.injector.plan)


class PooledServiceMachine(ServiceMachine):
    workers = 2


TestServiceMachine = ServiceMachine.TestCase
TestServiceMachine.settings = machine_settings(max_examples=5, steps=20)
TestPooledServiceMachine = PooledServiceMachine.TestCase
TestPooledServiceMachine.settings = machine_settings(max_examples=12,
                                                     steps=25)


# -- pinned cases --------------------------------------------------------------------


def prove(n=1):
    return ("submit_prove", dict(n=n))


def verify(*names):
    return ("submit_verify", dict(names=list(names)))


#: What one fault at a service site makes of the request it hits, and
#: the retries it costs.
SERVE_OUTCOMES = {
    "transient": (("ok", None), 1),
    "corrupt": (("ok", None), 1),
    "timeout": (("timeout", "timeout"), 0),
    "oom": (("error", "resources"), 0),
}


@pytest.mark.parametrize("site", SITES)
@pytest.mark.parametrize("kind", sorted(faults.KINDS))
def test_every_kind_at_every_service_site(site, kind):
    request = verify("good") if site == "serve:verify" else prove()
    m = replay(ServiceMachine(), arm(site, kind), request, request)
    assert m.injector.plan[0].fired
    outcome, retries = SERVE_OUTCOMES[kind]
    # A transient MSM fault degrades to the naive kernel instead.
    degraded = site == "msm:pippenger" and kind == "transient"
    assert m.log[-2][-1][0][:2] == outcome
    assert m.svc.counts["retries"] == retries - degraded
    assert m.registry.counter(
        "repro_resilience_msm_fallbacks_total") == degraded
    assert m.log[-1][-1][0][:2] == ("ok", None)  # the fault is spent


@pytest.mark.parametrize("kind", ["prove", "verify"])
def test_an_expired_deadline_resolves_as_timeout_unattempted(kind):
    m = replay(ServiceMachine(), ("submit_expiring", dict(kind=kind)),
               prove())
    assert m.log[0] == ("expiring", kind, ("timeout", "timeout", None))
    assert m.svc.counts["retries"] == 0
    assert m.log[1][1] == (("ok", None, None),)  # the service serves on


def test_a_burst_over_the_queue_cap_is_shed():
    m = replay(ServiceMachine(), prove(3), verify("good", "bad", "good"))
    assert m.log[0][1][2] == "admission"
    assert m.log[1][2] == (("ok", None, True), ("ok", None, False),
                           "admission")
    assert m.svc.counts["shed"] == 2


def test_refused_payloads_never_reach_a_batch():
    m = replay(ServiceMachine(), verify("arity", "good"),
               *(verify(name, "bad") for name in UNREDUCED))
    assert m.log[0][2] == ("corrupt", ("ok", None, True))
    for entry in m.log[1:]:
        assert entry[2] == ("corrupt", ("ok", None, False))


@pytest.mark.parametrize("timeout", [None, 0.0])
def test_a_drain_resolves_every_queued_request(timeout):
    m = replay(ServiceMachine(),
               ("drain", dict(queued=2, timeout=timeout)), prove())
    statuses = [summary[0] for summary in m.log[0][2]]
    assert statuses == (["ok", "ok"] if timeout is None
                        else ["ok", "timeout"])
    assert m.log[1][1] == (("ok", None, None),)  # started again


def test_crashes_trip_the_breaker_and_a_probe_recloses_it():
    m = replay(PooledServiceMachine(), ("crash", dict(n=2)), prove(),
               ("advance_clock", {}), prove())
    # Two crashes trip the breaker, the third attempt runs degraded, and
    # after the cooldown the next prove probes the pool and closes it.
    assert m.log[1][1] == (("ok", None, None),)
    assert m.log[2] == ("clock", "half-open")
    assert m.svc.breaker.trips == 1 and m.svc.breaker.state == "closed"


@pytest.mark.parametrize("kind", ["transient", "timeout", "oom"])
def test_a_probe_that_ends_without_a_verdict_is_handed_back(kind):
    # The half-open probe's attempt ends in a fault that is neither a
    # success nor a crash: the contract's probe check needs the slot back.
    m = replay(PooledServiceMachine(), ("crash", dict(n=2)), prove(),
               ("advance_clock", {}), arm("serve:prove", kind), prove())
    assert m.injector.plan[0].fired


def test_kernel_faults_fire_inside_the_workers():
    m = replay(PooledServiceMachine(), arm("msm:pippenger"),
               arm("ntt:transform", "corrupt"), prove(), verify("good", "bad"))
    assert all(spec.fired for spec in m.injector.plan)
    assert m.log[-2][1] == (("ok", None, None),)
    assert m.registry.counter("repro_parallel_ntt_total") > 0
    assert m.registry.counter("repro_resilience_msm_fallbacks_total") == 1


def test_the_same_seed_tells_the_same_story():
    first = story(ServiceMachine, 6)
    assert story(ServiceMachine, 6) == first
    assert story(ServiceMachine, 7) != first


@pytest.mark.parametrize("seed_value", range(3))
@pytest.mark.parametrize("machine_cls", [ServiceMachine,
                                         PooledServiceMachine],
                         ids=["serial", "pooled"])
def test_a_seeded_run_holds_the_contract(machine_cls, seed_value):
    # Short runs of the seeds CI replays at full length: every resolution
    # is typed with consistent phases, and every teardown drains the
    # service and reaps its workers.
    assert story(machine_cls, seed_value, max_examples=1, steps=8)
    assert multiprocessing.active_children() == []
