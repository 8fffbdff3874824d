"""Deep-profiler tests: collector attribution, family classification,
opcode weighting, allocation blocks, the workflow wiring, and the ledger
``profile`` block.

These tests drive :meth:`DeepProfiler.stage` on small synthetic functions
(microseconds) plus the cheap ``compile``/``witness`` workflow stages —
never a full pairing-heavy run, which the CI drift-smoke job covers.
"""

import sys

import pytest

from repro.obs import prof
from repro.obs.prof import DeepProfiler, classify_function


def busy(n=200):
    total = 0
    for i in range(n):
        total += i * i
    return total


def outer(n=200):
    return busy(n) + busy(n)


class TestClassifyFunction:
    @pytest.mark.parametrize("module,family", [
        ("repro.fields.prime_field", "bigint"),
        ("repro.fields", "bigint"),
        ("repro.curves.curve", "ec"),
        ("repro.curves.pairing", "pairing"),   # longest prefix beats ec
        ("repro.poly.ntt", "fft"),
        ("repro.msm.pippenger", "msm"),
        ("repro.circuit.compiler", "compiler"),
        ("repro.groth16.witness", "compiler"),
        ("repro.groth16.serialize", "parser"),
        ("hashlib", "hash"),
        ("repro.workflow", "other"),
        ("json", "other"),
    ])
    def test_module_to_family(self, module, family):
        assert classify_function(module) == family

    def test_prefix_must_match_at_dot_boundary(self):
        assert classify_function("repro.fieldsmith") == "other"


class TestCollector:
    def profile_one(self, fn, **kwargs):
        p = DeepProfiler()
        with p.stage("unit"):
            fn(**kwargs)
        return p.stages["unit"]

    def test_attributes_calls_and_time(self):
        sp = self.profile_one(outer)
        by_name = {f.qualname: f for f in sp.functions}
        assert by_name["busy"].ncalls == 2
        assert by_name["outer"].ncalls == 1
        assert by_name["busy"].self_s > 0
        # outer's cumulative covers busy's, its self time does not.
        assert by_name["outer"].cum_s >= by_name["busy"].cum_s
        assert by_name["outer"].self_s <= by_name["outer"].cum_s

    def test_functions_sorted_by_self_time(self):
        # CPU self time first, wall self time breaking ties.
        sp = self.profile_one(outer)
        selfs = [(f.cpu_self_s, f.self_s) for f in sp.functions]
        assert selfs == sorted(selfs, reverse=True)

    def test_collapsed_stacks_nest(self):
        sp = self.profile_one(outer)
        assert any(k.endswith("outer;tests.obs.test_prof:busy")
                   for k in sp.stacks)
        total_stack = sum(sp.stacks.values())
        total_self = sum(f.self_s for f in sp.functions)
        assert total_stack == pytest.approx(total_self, rel=1e-6)

    def test_c_calls_attributed(self):
        sp = self.profile_one(lambda: sorted(range(500)))
        names = {f.name for f in sp.functions}
        assert "builtins:sorted" in names

    def test_opcode_counts_weighted_by_ncalls(self):
        one = self.profile_one(busy)
        two = self.profile_one(outer)  # body of busy counted twice
        assert sum(two.opcode_counts.values()) > sum(one.opcode_counts.values())
        shares = two.opcode_shares()
        assert sum(shares.values()) == pytest.approx(100.0)
        assert set(shares) == {"compute", "control", "data", "other"}

    def test_hook_removed_after_stage(self):
        self.profile_one(busy)
        assert sys.getprofile() is None

    def test_hook_removed_after_stage_exception(self):
        p = DeepProfiler()
        with pytest.raises(RuntimeError, match="boom"):
            with p.stage("unit"):
                raise RuntimeError("boom")
        assert sys.getprofile() is None
        assert "unit" in p.stages  # partial stage still recorded

    def test_nested_hook_rejected(self):
        p = DeepProfiler()
        with pytest.raises(RuntimeError, match="already installed"):
            with p.stage("a"):
                with p.stage("b"):
                    pass  # pragma: no cover
        assert sys.getprofile() is None


class TestAllocTracking:
    @staticmethod
    def tracked(fn, **kwargs):
        p = DeepProfiler(**kwargs)
        with p.stage("unit"):
            fn()
        with p.allocations("unit"):
            fn()
        return p

    def test_alloc_block_present_and_positive_peak(self):
        def allocate():
            keep = [bytearray(64_000) for _ in range(8)]
            del keep

        p = self.tracked(allocate, top_alloc=3)
        block = p.stages["unit"].alloc
        assert block is not None
        assert block["peak_kb"] > 300  # ~500 KB were live at peak
        assert len(block["top"]) <= 3
        for site in block["top"]:
            assert ":" in site["site"]
        assert p.to_profile_block()["profiler"]["alloc"] is True

    def test_profiler_own_frames_filtered_from_top_sites(self):
        p = self.tracked(outer)
        for site in p.stages["unit"].alloc["top"]:
            assert "repro/obs/prof.py" not in site["site"]

    def test_alloc_disabled(self):
        p = DeepProfiler()
        with p.stage("unit"):
            busy()
        assert p.stages["unit"].alloc is None
        assert p.to_profile_block()["profiler"]["alloc"] is False


class TestWorkflowWiring:
    def run_cheap_stages(self, profiler):
        from repro.curves import BN128
        from repro.harness.circuits import build_exponentiate
        from repro.workflow import Workflow

        b, inputs = build_exponentiate(BN128, 4)
        wf = Workflow(BN128, b, inputs)
        for stage in ("compile", "witness"):  # as deep_profile_run does
            with profiler.stage(stage):
                wf.run_stage(stage)
        return wf

    def test_stages_profiled_around_run_stage(self):
        p = DeepProfiler()
        self.run_cheap_stages(p)
        assert set(p.stages) == {"compile", "witness"}
        compile_families = {f.family for f in p.stages["compile"].functions}
        assert "compiler" in compile_families
        assert p.stages["compile"].calls > 0

    def test_unprofiled_run_installs_no_hook(self):
        from repro.curves import BN128
        from repro.harness.circuits import build_exponentiate
        from repro.workflow import Workflow

        b, inputs = build_exponentiate(BN128, 4)
        wf = Workflow(BN128, b, inputs)
        wf.run_stage("compile")
        assert sys.getprofile() is None
        assert wf.results["compile"].artifact is not None


class TestViews:
    def make(self):
        p = DeepProfiler()
        with p.stage("compile"):
            outer()
        with p.stage("witness"):
            busy()
        return p

    def test_family_shares_sum_to_one(self):
        p = self.make()
        shares = p.stages["compile"].family_shares()
        assert sum(shares.values()) == pytest.approx(1.0)

    def test_measured_blocks_shape(self):
        blocks = self.make().measured_blocks()
        assert set(blocks) == {"compile", "witness"}
        for block in blocks.values():
            assert set(block) == {"wall_s", "family_shares", "opcode_shares"}

    def test_profile_block_is_bounded_and_json_ready(self):
        import json

        block = self.make().to_profile_block(top_functions=2, top_stacks=1)
        assert block["profiler"]["backend"] == prof.BACKEND
        for stage in block["stages"].values():
            assert len(stage["functions"]) <= 2
            assert len(stage["stacks"]) <= 1
        json.dumps(block)

    def test_renderers_cover_all_sections(self):
        p = self.make()
        text = prof.render_deep_profile(p, top=3)
        assert "compile" in text and "witness" in text
        assert "family" in text
        assert "compute%" in text
        assert "alloc" in text.lower()
