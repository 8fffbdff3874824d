"""Seeded chaos driver: run the pipeline under a fault schedule.

``run_chaos`` derives a deterministic fault plan from a seed, installs
the injector and a fresh metrics registry, gives the workflow a
retry/deadline policy, runs the full five stages plus a proof/vk
serialization round-trip, and reduces what happened to a
:class:`ChaosReport`:

- ``recovered`` — every injected fault was absorbed (retried or
  degraded; the counters say which) and the final proof verified;
- ``stage-failed`` / ``typed-failure`` — the pipeline lost, but with the
  matching taxonomy error, which is the contract;
- ``untyped-failure`` — a bare exception escaped: the one outcome the
  chaos suite treats as a bug.

Exposed as ``python -m repro chaos --seed 0 --faults 4``; the heavy
pipeline imports happen inside :func:`run_chaos` so importing the
resilience package stays cheap.
"""

from __future__ import annotations

import json

from repro.obs import metrics
from repro.resilience import faults
from repro.resilience.errors import ReproError, StageError
from repro.resilience.retry import ResiliencePolicy, RetryPolicy, with_retry

__all__ = ["ChaosReport", "run_chaos"]

#: Statuses that honor the chaos contract (typed or recovered).
ACCEPTABLE = ("recovered", "stage-failed", "typed-failure")


class ChaosReport:
    """Outcome of one chaos run: plan, status, and recovery counters."""

    def __init__(self, seed, curve, size, workload, status, error, plan,
                 counters):
        self.seed = seed
        self.curve = curve
        self.size = size
        self.workload = workload
        self.status = status
        self.error = error
        self.plan = plan
        self.counters = counters

    @property
    def recovered(self):
        return self.status == "recovered"

    @property
    def acceptable(self):
        """True iff the run honored the never-a-bare-traceback contract."""
        return self.status in ACCEPTABLE

    def to_dict(self):
        return {
            "seed": self.seed,
            "curve": self.curve,
            "size": self.size,
            "workload": self.workload,
            "status": self.status,
            "error": self.error,
            "plan": [spec.to_dict() for spec in self.plan],
            "counters": dict(sorted(self.counters.items())),
        }

    def to_json(self, indent=None):
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def render_text(self):
        lines = [
            f"chaos run: seed={self.seed} faults={len(self.plan)} "
            f"curve={self.curve} size={self.size} workload={self.workload}",
            *faults.render_plan(self.plan),
            f"outcome: {self.status}"
            + (f" — {self.error}" if self.error else ""),
        ]
        if self.counters:
            lines.append("recovery counters:")
            for name, value in sorted(self.counters.items()):
                lines.append(f"  {name} {value}")
        return "\n".join(lines)


def run_chaos(seed=0, n_faults=3, curve="bn128", size=32,
              workload="exponentiate", max_attempts=3, sites=None,
              plan=None, workers=None):
    """Run one seeded chaos experiment; returns a :class:`ChaosReport`.

    *plan* overrides the schedule derived from *seed* (used by the chaos
    test suite to pin one fault to one site).  *workers* > 1 runs the
    pipeline under the parallel backend — faults then fire *inside*
    worker processes and must still come back typed (the interop the
    parallel test suite pins down)."""
    from repro.curves import get_curve
    from repro.groth16.serialize import (
        proof_from_bytes,
        proof_to_bytes,
        vk_from_bytes,
        vk_to_bytes,
    )
    from repro.harness.circuits import build_workload
    from repro.workflow import Workflow

    if plan is None:
        plan = faults.schedule(seed, n_faults, sites=sites or faults.ALL_SITES)
    curve_obj = get_curve(curve)
    builder, inputs = build_workload(workload, curve_obj, size)
    # sleep=None: chaos replays the backoff *schedule* without paying the
    # wall-clock for it, keeping CI smoke runs fast and deterministic.
    policy = ResiliencePolicy(
        retry=RetryPolicy(max_attempts=max_attempts, seed=seed, sleep=None))
    wf = Workflow(curve_obj, builder, inputs, seed=seed, workers=workers,
                  policy=policy)
    registry = metrics.MetricsRegistry()

    status, error = "recovered", None
    with metrics.collecting(registry), faults.injecting(plan):
        try:
            wf.run_all()

            def _roundtrip():
                proof_from_bytes(proof_to_bytes(wf.proof))
                vk_from_bytes(vk_to_bytes(wf.vk))

            with_retry(_roundtrip, policy.retry, label="serialize-roundtrip")
            if wf.accepted is not True:
                status, error = "rejected", "pipeline completed but proof rejected"
        except StageError as exc:
            status, error = "stage-failed", exc.one_line()
        except ReproError as exc:
            status, error = "typed-failure", exc.one_line()
        except Exception as exc:  # noqa: BLE001 — the contract violation path
            status, error = "untyped-failure", f"{type(exc).__name__}: {exc}"
        finally:
            wf.close()

    counters = {
        name: value
        for name, value in registry.snapshot()["counters"].items()
        if name.startswith("repro_resilience_")
    }
    return ChaosReport(seed=seed, curve=curve, size=size, workload=workload,
                       status=status, error=error, plan=plan,
                       counters=counters)
