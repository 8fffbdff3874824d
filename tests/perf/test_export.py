"""Trace-export tests: every recording goes through the one chrome-trace
writer (modeled region trees, measured spans, worker task lanes,
request phase trees)."""

import json

import pytest

from repro.obs.spans import Span, recording, span
from repro.perf.export import (
    collapsed_to_text,
    regions_to_spans,
    requests_to_spans,
    spans_to_chrome_trace,
    to_speedscope,
)
from repro.perf.trace import Tracer


@pytest.fixture
def tracer():
    t = Tracer(label="unit")
    t.op("bigint_mul_4", 100)
    with t.region("outer", parallel=True, items=4):
        t.op("bigint_add_4", 50)
        with t.region("inner"):
            t.op("ntt_butterfly", 25)
    return t


def modeled(tracers, **kw):
    return json.loads(spans_to_chrome_trace(regions_to_spans(tracers, **kw)))


def bars(doc):
    return [e for e in doc["traceEvents"] if e["ph"] == "X"]


def lane_names(doc, kind):
    return {(e["pid"], e["tid"]): e["args"]["name"]
            for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == kind}


class TestModeledTrace:
    def test_valid_json_with_all_regions(self, tracer):
        doc = modeled({"proving": tracer})
        # The per-stage root is renamed from <root> to the stage name.
        assert [e["name"] for e in bars(doc)] == ["proving", "outer", "inner"]
        assert doc["otherData"]["roots"] == ["proving"]

    def test_durations_positive_and_nested(self, tracer):
        doc = modeled({"proving": tracer})
        by_name = {e["name"]: e for e in bars(doc)}
        for e in bars(doc):
            assert e["dur"] > 0
        # A child must fit inside its parent's span.
        outer, inner = by_name["outer"], by_name["inner"]
        assert outer["ts"] <= inner["ts"]
        assert inner["ts"] + inner["dur"] <= outer["ts"] + outer["dur"] + 0.01
        assert outer["dur"] >= inner["dur"]

    def test_args_carry_counters_and_no_measured_fields(self, tracer):
        outer = next(e for e in bars(modeled({"proving": tracer}))
                     if e["name"] == "outer")
        assert outer["args"]["parallel"] is True
        assert outer["args"]["items"] == 4
        assert outer["args"]["instructions"] > 0
        assert "cpu_s" not in outer["args"]  # nothing was measured

    def test_frequency_scales_durations(self, tracer):
        slow = modeled({"proving": tracer}, freq_ghz=1.0)
        fast = modeled({"proving": tracer}, freq_ghz=4.0)
        s = next(e for e in bars(slow) if e["name"] == "outer")["dur"]
        f = next(e for e in bars(fast) if e["name"] == "outer")["dur"]
        assert s == pytest.approx(4 * f, rel=0.05)

    def test_ts_monotone_across_siblings(self):
        t = Tracer()
        for name in ("a", "b", "c"):
            with t.region(name):
                t.op("bigint_mul_4", 10)
        doc = modeled({"proving": t})
        by_name = {e["name"]: e for e in bars(doc)}
        # Siblings are laid out sequentially: each starts at or after the
        # previous one's end, and ts never decreases in emit order.
        assert by_name["b"]["ts"] >= by_name["a"]["ts"] + by_name["a"]["dur"] - 0.01
        assert by_name["c"]["ts"] >= by_name["b"]["ts"] + by_name["b"]["dur"] - 0.01
        ts_in_order = [e["ts"] for e in bars(doc)]
        assert ts_in_order == sorted(ts_in_order)

    def test_each_stage_on_own_pid_and_main_tid(self):
        tracers = {}
        for stage in ("setup", "proving"):
            t = Tracer(label=stage)
            t.op("bigint_mul_4", 5)
            with t.region(f"{stage}_inner"):
                t.op("bigint_add_4", 2)
            tracers[stage] = t
        doc = modeled(tracers)
        assert doc["otherData"]["roots"] == ["setup", "proving"]
        pids = {e["name"]: e["pid"] for e in bars(doc)}
        assert pids == {"setup": 1, "setup_inner": 1,
                        "proving": 2, "proving_inner": 2}
        assert {e["tid"] for e in bars(doc)} == {1}
        assert lane_names(doc, "process_name") == {(1, 0): "setup",
                                                   (2, 0): "proving"}
        assert lane_names(doc, "thread_name") == {}  # no tid lanes to name


class TestMeasuredTrace:
    def test_measured_spans_render(self):
        with recording("run") as rec:
            with span("compile"):
                pass
            with span("proving"):
                sum(range(200_000))
        doc = json.loads(spans_to_chrome_trace([rec.root]))
        events = {e["name"]: e for e in bars(doc)}
        assert set(events) == {"run", "compile", "proving"}
        for e in bars(doc):
            assert e["dur"] > 0 and e["pid"] == 1 and e["tid"] == 1
        assert events["proving"]["args"]["cpu_s"] > 0
        # Real timeline: proving starts after compile ends.
        assert (events["proving"]["ts"]
                >= events["compile"]["ts"] + events["compile"]["dur"] - 1.0)
        assert doc["otherData"]["roots"] == ["run"]
        assert lane_names(doc, "process_name") == {(1, 0): "run"}

    def test_laned_subtrees_get_tid_lanes(self):
        def task(start_s, lane, **meta):
            return Span("task:msm_window_slice", 2, start_s=start_s,
                        wall_s=0.05, cpu_s=0.05, meta=dict(lane=lane, **meta),
                        children=[Span("inner", 3, start_s=start_s + 0.02,
                                       wall_s=0.01, cpu_s=0.01)])

        # Natural lane order: worker 999 sorts before worker 4001.
        window = Span("parallel:msm", 1, start_s=0.05, wall_s=0.3,
                      children=[task(0.1, "worker 4001", queue_wait_s=0.002),
                                task(0.2, "worker 999")])
        root = Span("run", 0, wall_s=0.5, children=[window])
        doc = json.loads(spans_to_chrome_trace([root]))
        by_name = {}
        for e in bars(doc):
            by_name.setdefault(e["name"], []).append(e)
        # Parent spans stay on tid 1; each worker gets its own lane, and
        # children inherit the worker's lane.
        assert {b["tid"] for b in by_name["parallel:msm"]} == {1}
        assert lane_names(doc, "thread_name") == {
            (1, 1): "main", (1, 2): "worker 999", (1, 3): "worker 4001"}
        assert sorted(b["tid"] for b in by_name["task:msm_window_slice"]) == [2, 3]
        assert sorted(b["tid"] for b in by_name["inner"]) == [2, 3]
        on_4001 = next(b for b in by_name["task:msm_window_slice"] if b["tid"] == 3)
        assert on_4001["args"]["queue_wait_s"] == 0.002

    def test_pool_worker_bars_carry_the_wire_costs(self):
        """A real two-worker map: one lane per worker pid, task bars with
        queue wait, codec time and byte counts, the map's utilization and
        imbalance on the ``parallel:*`` span."""
        from repro.obs.worker import collecting_tasks
        from repro.parallel.pool import WorkerPool

        payloads = [{"x": i} for i in range(8)]
        with collecting_tasks() as tel, recording("unit") as rec:
            with WorkerPool(2) as pool:
                pool.map("selftest_square", payloads, label="unit")
        doc = json.loads(spans_to_chrome_trace([rec.root]))
        tasks = [e for e in bars(doc) if e["name"].startswith("task:")]
        assert len(tasks) == len(payloads)
        threads = lane_names(doc, "thread_name")
        assert {threads[(1, e["tid"])] for e in tasks} == \
            {f"worker {t['pid']}" for t in tel.tasks}
        for e in tasks:
            for field in ("queue_wait_s", "decode_s", "encode_s"):
                assert e["args"][field] >= 0.0
            assert e["args"]["payload_bytes"] > 0
            assert e["args"]["result_bytes"] > 0
        window = next(e for e in bars(doc) if e["name"] == "parallel:unit")
        assert window["tid"] == 1
        assert 0 <= window["args"]["utilization"] <= 1.0
        assert window["args"]["imbalance"] >= 1.0


class TestRequestTrace:
    def make_results(self):
        from repro.serve.jobs import JobResult

        ok = JobResult(request_id=1, kind="prove", status="ok",
                       total_s=0.030, start_s=0.010,
                       phases={"admission": 0.001, "queue_wait": 0.004,
                               "compute": 0.020, "settle": 0.005})
        retried = JobResult(request_id=2, kind="verify", status="ok",
                            attempts=3, batched=2, total_s=0.050,
                            start_s=0.015,
                            phases={"admission": 0.001, "queue_wait": 0.012,
                                    "retry_backoff": 0.007,
                                    "compute": 0.028, "settle": 0.002})
        shed = JobResult(request_id=-3, kind="prove", status="shed",
                         error_code="admission",
                         error="error[admission]: queue full")
        return [ok, retried, shed]

    def doc(self, results=None):
        return json.loads(spans_to_chrome_trace(requests_to_spans(
            self.make_results() if results is None else results)))

    def test_lanes_and_phase_subbars(self):
        doc = self.doc()
        # One pid lane per request class, sorted; the untracked shed is
        # skipped.
        assert doc["otherData"]["roots"] == ["prove", "verify"]
        parents = {e["name"]: e for e in bars(doc) if "#" in e["name"]}
        assert set(parents) == {"prove #1 [ok]", "verify #2 [ok]"}
        assert parents["prove #1 [ok]"]["pid"] == 1
        assert parents["verify #2 [ok]"]["pid"] == 2
        # The parent bar spans total_s at the request's start offset.
        p = parents["prove #1 [ok]"]
        assert p["ts"] == pytest.approx(0.010 * 1e6)
        assert p["dur"] == pytest.approx(0.030 * 1e6)
        # Phase sub-bars tile the parent on the same (pid, tid) lane.
        subs = [e for e in bars(doc) if e["pid"] == p["pid"]
                and e["tid"] == p["tid"] and "#" not in e["name"]]
        assert [e["name"] for e in subs] == ["admission", "queue_wait",
                                             "compute", "settle"]
        assert subs[0]["ts"] == pytest.approx(p["ts"])
        end = subs[-1]["ts"] + subs[-1]["dur"]
        assert end == pytest.approx(p["ts"] + p["dur"])

    def test_retry_phase_and_batch_size_render(self):
        doc = self.doc()
        assert "retry_backoff" in [e["name"] for e in bars(doc)]
        verify = next(e for e in bars(doc) if e["name"] == "verify #2 [ok]")
        assert verify["args"]["batched"] == 2

    def test_lane_metadata_names(self):
        doc = self.doc()
        assert lane_names(doc, "process_name") == {(1, 0): "prove",
                                                   (2, 0): "verify"}
        assert set(lane_names(doc, "thread_name").values()) == {
            "main", "request 1", "request 2"}

    def test_untracked_only_input_is_an_empty_trace(self):
        from repro.serve.jobs import JobResult

        shed = JobResult(request_id=-1, kind="prove", status="shed",
                         error_code="admission", error="error[admission]: x")
        doc = self.doc([shed])
        assert doc["traceEvents"] == []
        assert doc["otherData"]["roots"] == []


class TestStableOrdering:
    """pid/tid/profile indices must not depend on dict construction order."""

    def make_tracers(self, order):
        tracers = {}
        for stage in order:
            t = Tracer(label=stage)
            t.op("bigint_mul_4", 5)
            tracers[stage] = t
        return tracers

    def test_stage_pids_canonical_under_shuffled_input(self):
        shuffled = self.make_tracers(("verifying", "compile", "proving"))
        assert modeled(shuffled)["otherData"]["roots"] == [
            "compile", "proving", "verifying"]

    def test_extra_stages_sorted_after_canonical(self):
        doc = modeled(self.make_tracers(("zeta", "alpha", "setup")))
        assert doc["otherData"]["roots"] == ["setup", "alpha", "zeta"]

    def test_byte_identical_across_orders(self):
        a = regions_to_spans(self.make_tracers(("setup", "proving")))
        b = regions_to_spans(self.make_tracers(("proving", "setup")))
        assert spans_to_chrome_trace(a) == spans_to_chrome_trace(b)

    def test_tid_lanes_do_not_depend_on_child_order(self):
        def trace(order):
            root = Span("run", 0, wall_s=1.0, children=[
                Span("task:t", 1, start_s=0.1, wall_s=0.05,
                     meta={"lane": f"worker {pid}"}) for pid in order])
            doc = json.loads(spans_to_chrome_trace([root]))
            return lane_names(doc, "thread_name")

        assert trace((30, 7, 100)) == trace((100, 30, 7)) == {
            (1, 1): "main", (1, 2): "worker 7", (1, 3): "worker 30",
            (1, 4): "worker 100"}


STACKS = {
    "proving": {"repro.groth16.prover:prove": 0.25,
                "repro.groth16.prover:prove;repro.msm.pippenger:msm": 1.5},
    "compile": {"repro.circuit.compiler:compile_circuit": 0.0625},
}


class TestCollapsedStacks:
    def test_flamegraph_format(self):
        text = collapsed_to_text(STACKS)
        lines = text.strip().splitlines()
        # stage prefix;frames... <integer microseconds>, compile first
        assert lines[0] == "compile;repro.circuit.compiler:compile_circuit 62500"
        assert ("proving;repro.groth16.prover:prove;"
                "repro.msm.pippenger:msm 1500000") in lines
        for line in lines:
            stack, weight = line.rsplit(" ", 1)
            assert int(weight) > 0

    def test_zero_weight_stacks_dropped(self):
        text = collapsed_to_text({"setup": {"a:b": 0.0, "a:c": 1e-9}})
        assert text == "\n"

    def test_deterministic_across_dict_orders(self):
        flipped = {"compile": dict(reversed(list(STACKS["compile"].items()))),
                   "proving": dict(reversed(list(STACKS["proving"].items())))}
        assert collapsed_to_text(STACKS) == collapsed_to_text(flipped)


class TestSpeedscope:
    def test_document_shape(self):
        doc = json.loads(to_speedscope(STACKS, name="unit"))
        assert doc["$schema"] == (
            "https://www.speedscope.app/file-format-schema.json")
        assert doc["name"] == "unit"
        assert [p["name"] for p in doc["profiles"]] == ["compile", "proving"]
        frames = [f["name"] for f in doc["shared"]["frames"]]
        assert "repro.msm.pippenger:msm" in frames
        for p in doc["profiles"]:
            assert p["type"] == "sampled" and p["unit"] == "seconds"
            assert len(p["samples"]) == len(p["weights"])
            total = sum(STACKS[p["name"]].values())
            assert p["endValue"] == pytest.approx(total)
            for sample in p["samples"]:
                for idx in sample:
                    assert 0 <= idx < len(frames)

    def test_samples_reference_full_stacks(self):
        doc = json.loads(to_speedscope(STACKS))
        frames = [f["name"] for f in doc["shared"]["frames"]]
        proving = next(p for p in doc["profiles"] if p["name"] == "proving")
        rendered = {";".join(frames[i] for i in s) for s in proving["samples"]}
        assert rendered == set(STACKS["proving"])

    def test_frame_table_stable_across_dict_orders(self):
        flipped = {"proving": dict(reversed(list(STACKS["proving"].items()))),
                   "compile": STACKS["compile"]}
        assert to_speedscope(STACKS) == to_speedscope(flipped)
