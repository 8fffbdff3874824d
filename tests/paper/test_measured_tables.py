"""Measured Tables IV/V and Fig. 5 analog: one real deep-profiled run.

The table4/table5 tests assert the *modeled* artifacts; this one
runs the five-stage protocol under the real-interpreter deep profiler
(:mod:`repro.obs.prof`) and asserts the paper's shape claims against
what CPython actually executed — hot functions concentrate in the
arithmetic kernels, every stage's bytecode stream is data-flow heavy
(the interpreter analog of Table V's x86 stream), allocations peak in
the key-material stages — and closes the loop by running the drift
gate against the cost model (docs/PROFILING.md).

One deep-profiled run is ~50x slower than a bare one, so the size is
small and the single run is shared by every test in this module.
"""

import statistics

import pytest

from repro.curves import get_curve
from repro.harness.circuits import build_workload
from repro.obs import drift, prof
from repro.workflow import Workflow

SIZE = 8

#: Compile and witness alone are cheap to profile; at SIZE the fixed
#: workflow overhead is about a quarter of them and the compiler share
#: sits at the 0.5 line, at this size the overhead is about 1 %.
FRONT_END_SIZE = 256


@pytest.fixture(scope="module")
def profiled():
    _wf, profiler = prof.deep_profile_run("bn128", SIZE)
    return profiler


def front_end_shares():
    """Family shares of compile and witness alone, deep-profiled once."""
    curve = get_curve("bn128")
    builder, inputs = build_workload("exponentiate", curve, FRONT_END_SIZE)
    profiler = prof.DeepProfiler()
    with Workflow(curve, builder, inputs) as wf:
        for stage in ("compile", "witness"):
            with profiler.stage(stage):
                wf.run_stage(stage)
    return {stage: p.family_shares() for stage, p in profiler.stages.items()}


class TestMeasuredTable4:
    def test_crypto_stages_dominated_by_field_and_curve_kernels(self, profiled):
        for stage in ("setup", "proving", "verifying"):
            fams = profiled.stages[stage].family_shares()
            crypto = sum(fams.get(f, 0.0)
                         for f in ("bigint", "ec", "msm", "pairing", "fft"))
            assert crypto > 0.7, (stage, fams)

    def test_verifying_hottest_function_is_extension_field_mul(self, profiled):
        # The paper's Table IV: verification is pairing work, which in this
        # stack bottoms out in extension-field tower multiplication.
        hottest = profiled.stages["verifying"].functions[0]
        assert hottest.family == "bigint"
        assert hottest.module == "repro.fields.extensions"

    def test_compile_and_witness_are_compiler_family(self):
        # One GC pass or one preemption inside a single run can still move
        # the shares: profile the pair five times and take the median.
        runs = [front_end_shares() for _ in range(5)]
        for stage in ("compile", "witness"):
            share = statistics.median(r[stage].get("compiler", 0.0) for r in runs)
            assert share > 0.5, (stage, runs)


class TestMeasuredTable5:
    def test_interpreter_stream_is_data_flow_heavy(self, profiled):
        # CPython's stack machine spends most opcodes moving operands;
        # every stage must classify as data-flow intensive.
        for stage, p in profiled.stages.items():
            shares = p.opcode_shares()
            assert shares["data"] > shares["compute"], (stage, shares)
            assert shares["data"] > shares["control"], (stage, shares)
            assert shares["other"] < 10.0, (stage, shares)

    def test_opcode_totals_scale_with_calls(self, profiled):
        totals = [sum(p.opcode_counts.values())
                  for p in sorted(profiled.stages.values(), key=lambda p: p.calls)]
        assert totals == sorted(totals)


class TestMeasuredFig5:
    def test_allocation_peaks_in_key_material_stages(self, profiled):
        alloc = {s: p.alloc["peak_kb"] for s, p in profiled.stages.items()}
        assert alloc["proving"] > alloc["witness"]
        assert alloc["setup"] > alloc["compile"]


class TestDriftGate:
    def test_measured_run_agrees_with_model(self, profiled):
        report = drift.check_drift(
            profiled.measured_blocks(),
            drift.model_reference("bn128", SIZE),
            curve="bn128", size=SIZE, workload="exponentiate")
        assert report.ok, "\n" + report.render_text()
