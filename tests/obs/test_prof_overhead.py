"""Profiler overhead contract (docs/PROFILING.md).

Two promises are enforced:

* **Disabled is free**: the profiler is not ambient, so without one no
  profile hook is ever installed and the workflow's stage driver has
  nothing to check (asserted structurally — no hook before, during, or
  after — since asserting "within timing noise" directly would itself be
  noise).
* **Enabled is bounded**: a deep-profiled, call-dense workload stays
  within :data:`repro.obs.prof.ENABLED_OVERHEAD_BOUND` of its unprofiled
  wall time.  The bound is deliberately loose (deterministic per-call
  hooks on microsecond-scale Python calls are expensive); tightening it
  requires re-measuring, see the docs.
"""

import sys
import time

from repro.obs.prof import DeepProfiler, ENABLED_OVERHEAD_BOUND


def call_dense(n=3000):
    """Many tiny calls — the profiler's worst case per unit of work."""

    def leaf(i):
        return i * i

    total = 0
    for i in range(n):
        total += leaf(i)
    return total


class TestDisabledOverhead:
    def test_no_hook_without_profiler(self):
        assert sys.getprofile() is None
        call_dense()
        assert sys.getprofile() is None

    def test_workflow_stage_installs_no_hook_when_disabled(self):
        from repro.curves import BN128
        from repro.harness.circuits import build_exponentiate
        from repro.workflow import Workflow

        b, inputs = build_exponentiate(BN128, 4)
        wf = Workflow(BN128, b, inputs)

        seen = []
        original = wf._stage_compile

        def spying_compile():
            seen.append(sys.getprofile())
            return original()

        wf._stage_compile = spying_compile
        wf.run_stage("compile")
        assert seen == [None]  # no hook live inside the stage body
        assert sys.getprofile() is None


class TestEnabledOverhead:
    def test_profiled_run_within_documented_bound(self):
        # Warm up, then take the best of 3 for each side to damp jitter.
        # Measured in CPU time, not wall time: the ratio is then immune to
        # the machine being busy (scheduler preemption inflates wall time
        # on both sides unevenly and made this gate flake under load).
        call_dense()
        plain = min(self._timed(lambda: call_dense()) for _ in range(3))

        def profiled():
            p = DeepProfiler()
            with p.stage("unit"):
                call_dense()

        slow = min(self._timed(profiled) for _ in range(3))
        ratio = slow / plain if plain > 0 else 1.0
        assert ratio <= ENABLED_OVERHEAD_BOUND, (
            f"deep profiling slowed a call-dense workload {ratio:.1f}x, "
            f"documented bound is {ENABLED_OVERHEAD_BOUND}x")

    @staticmethod
    def _timed(fn):
        t0 = time.process_time()
        fn()
        return time.process_time() - t0

    def test_hook_gone_after_profiled_run(self):
        p = DeepProfiler()
        with p.stage("unit"):
            call_dense(100)
        assert sys.getprofile() is None
