"""Robustness tests for the observation layer as a whole: the top-down
model must respond sensibly to *hypothetical* machines (it is a model of
CPUs, not a lookup table for three of them).
"""

import pytest

from repro.curves import BN128
from repro.harness.circuits import build_exponentiate
from repro.perf.cache import CacheSim, LLCModel
from repro.perf.costmodel import aggregate_tracer
from repro.perf.cpu import MachineSpec, _profile
from repro.perf.topdown import topdown_analysis
from repro.perf.trace import Tracer
from repro.workflow import Workflow


def custom_cpu(**overrides):
    """A hypothetical machine derived from the i9."""
    base = dict(
        name="custom",
        cores_perf=4, cores_eff=0, smt_threads=8, freq_ghz=2.0,
        issue_width=4, rob_size=128,
        fe_capacity_bytes=64 * 1024, fe_spill_penalty=0.5,
        branch_mispred_penalty=14, mispred_scale=1.0, dep_sensitivity=0.8,
        ports_compute=3.0, ports_data=3.0, ports_control=1.5,
        l1d_kib=32, l2_kib=512, llc_kib=8 * 1024, llc_assoc=16, line_bytes=64,
        mem_latency_ns=90.0, mem_bw_gbps=25.0, dram_channels=2,
        dram_type="DDR4", mlp=6.0, thread_profile=_profile(4, 0, 4),
    )
    base.update(overrides)
    return MachineSpec(**base)


def view(tracer, spec):
    """``(CacheStats, TopDownResult)`` of *tracer*'s stored events on
    *spec*: its scaled LLC fed the events, then the top-down model."""
    llc = CacheSim.scaled(spec)
    model = LLCModel([llc])
    for event in tracer.mem_events:
        model.append(event)
    return llc.stats, topdown_analysis(aggregate_tracer(tracer), llc.stats, spec)


class TestHypotheticalMachines:
    @pytest.fixture(scope="class")
    def tracer(self):
        builder, inputs = build_exponentiate(BN128, 64)
        wf = Workflow(BN128, builder, inputs, seed=0)
        t = Tracer()
        wf.run_stage("compile")
        wf.run_stage("setup")
        wf.run_stage("witness", t)
        return t

    def test_giant_frontend_removes_fe_boundness(self, tracer):
        _, td_tiny = view(tracer, custom_cpu(fe_capacity_bytes=4 * 1024))
        _, td_huge = view(tracer, custom_cpu(fe_capacity_bytes=16 * 1024 * 1024))
        assert td_tiny.frontend > 0.3
        assert td_huge.frontend == 0.0

    def test_perfect_ooo_reduces_backend(self, tracer):
        _, td_leaky = view(tracer, custom_cpu(dep_sensitivity=1.0))
        _, td_perfect = view(tracer, custom_cpu(dep_sensitivity=0.0))
        assert td_perfect.backend < td_leaky.backend

    def test_bigger_cache_never_increases_misses(self, tracer):
        small, _ = view(tracer, custom_cpu(llc_kib=1024))
        big, _ = view(tracer, custom_cpu(llc_kib=64 * 1024))
        assert big.load_misses <= small.load_misses

    def test_oracle_predictor_removes_bad_speculation(self, tracer):
        _, td = view(tracer, custom_cpu(mispred_scale=0.0))
        assert td.bad_speculation == 0.0
