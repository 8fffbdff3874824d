"""What the two fault machines share: their settings, a pinned replay and
a seeded story.

The machines (``tests/resilience/test_workflow_machine.py`` over
``Workflow.run_stage``, ``tests/serve/test_service_machine.py`` over
``ProvingService``) are the repository's one fault harness.  Each has one
``@invariant`` method, ``contract``, so a pinned example can check after
every step exactly what a hypothesis run checks.
"""

from hypothesis import HealthCheck, Phase, seed, settings
from hypothesis.stateful import run_state_machine_as_test


def machine_settings(max_examples, steps):
    """*max_examples* runs of up to *steps* rules each.  No deadline (the
    rules run real proofs), and a failure report carries its
    ``@reproduce_failure`` blob.  The seed is pytest's
    ``--hypothesis-seed``; nothing derandomizes it."""
    return settings(max_examples=max_examples, stateful_step_count=steps,
                    deadline=None, suppress_health_check=list(HealthCheck),
                    print_blob=True)


def arm(site, kind="transient", offset=1):
    """The pinned step that arms *kind* at the *offset*-th next check of
    *site* (both machines' ``arm`` rule)."""
    return ("arm", dict(site=site, kind=kind, offset=offset))


def replay(machine, *steps):
    """Run *steps*, each ``(rule name, kwargs)``, on *machine* the way a
    hypothesis run does: the contract before the first step and after
    every step, and the teardown at the end, also when a step fails.
    Returns the machine, whose state the caller then inspects."""
    try:
        machine.contract()
        for name, kwargs in steps:
            getattr(machine, name)(**kwargs)
            machine.contract()
    finally:
        machine.teardown()
    return machine


def story(machine_cls, seed_value, max_examples=2, steps=6):
    """The ``log`` of every step of a run of *machine_cls* seeded with
    *seed_value*: what each rule drew and how it ended."""
    log = []

    def factory():
        return machine_cls(log=log)

    seed(seed_value)(factory)
    run_state_machine_as_test(factory, settings=settings(
        machine_settings(max_examples, steps), database=None,
        phases=[Phase.generate]))
    return log
