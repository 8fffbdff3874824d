"""Span API tests: nesting, measured quantities, the disabled no-op path,
the decorator, counter attachment, and serialization."""

import time

import pytest

from repro.context import RUN
from repro.obs.spans import (
    attach_counters,
    current_span,
    recording,
    render_spans,
    span,
    spanned,
)


class TestDisabledPath:
    def test_off_by_default(self):
        assert RUN.spans is None
        assert current_span() is None

    def test_span_is_noop_without_recorder(self):
        with span("anything") as sp:
            assert sp is None

    def test_attach_counters_is_noop_without_recorder(self):
        attach_counters({"bigint_mul_4": 3})  # must not raise

    def test_decorated_function_runs_without_recorder(self):
        @spanned
        def f(x):
            return x + 1

        assert f(1) == 2


class TestRecording:
    def test_tree_structure(self):
        with recording("run") as rec:
            with span("outer"):
                with span("inner"):
                    pass
            with span("second"):
                pass
        names = [sp.name for sp in rec.root.walk()]
        assert names == ["run", "outer", "inner", "second"]
        assert rec.root.children[0].children[0].depth == 2

    def test_wall_and_cpu_measured(self):
        with recording() as rec:
            with span("sleepy"):
                time.sleep(0.02)
            with span("busy"):
                x = 0
                for i in range(200_000):
                    x += i
        sleepy, busy = rec.root.children
        assert sleepy.wall_s >= 0.02
        assert sleepy.cpu_s < sleepy.wall_s + 0.01
        assert busy.cpu_s > 0
        # Root wall covers the children and start offsets are ordered.
        assert rec.root.wall_s >= sleepy.wall_s + busy.wall_s - 1e-6
        assert busy.start_s >= sleepy.start_s + sleepy.wall_s - 1e-6

    def test_rss_delta_counts_new_peaks(self):
        with recording() as rec:
            with span("alloc"):
                blob = bytearray(64 * 1024 * 1024)  # push the high-water mark
            del blob
        assert rec.root.children[0].rss_peak_delta_kb > 0

    def test_gc_collections_counted(self):
        import gc

        with recording() as rec:
            with span("collect"):
                gc.collect()
        assert rec.root.children[0].gc_collections >= 1

    def test_restores_on_exception(self):
        with pytest.raises(ValueError):
            with recording():
                with span("broken"):
                    raise ValueError("boom")
        assert RUN.spans is None

    def test_current_span_tracks_innermost(self):
        with recording() as rec:
            assert current_span() is rec.root
            with span("a") as a:
                assert current_span() is a
            assert current_span() is rec.root


class TestMetaAndCounters:
    def test_meta_kwargs_stored(self):
        with recording() as rec:
            with span("stage", curve="bn128", size=64):
                pass
        assert rec.root.children[0].meta == {"curve": "bn128", "size": 64}

    def test_attach_counters_merges_into_innermost(self):
        with recording() as rec:
            with span("stage"):
                attach_counters({"bigint_mul_4": 10})
                attach_counters({"bigint_mul_4": 5, "ntt_butterfly": 2})
        assert rec.root.children[0].counters == {
            "bigint_mul_4": 15, "ntt_butterfly": 2,
        }


class TestDecorator:
    def test_records_under_label(self):
        @spanned("custom")
        def f():
            return 7

        with recording() as rec:
            assert f() == 7
        assert rec.root.children[0].name == "custom"

    def test_bare_uses_qualname(self):
        @spanned
        def plain():
            pass

        with recording() as rec:
            plain()
        assert "plain" in rec.root.children[0].name


class TestSerialization:
    def make_tree(self):
        with recording("run") as rec:
            with span("stage", curve="bn128"):
                attach_counters({"bigint_mul_4": 3})
        return rec.root

    def test_to_dict_schema(self):
        d = self.make_tree().to_dict()
        assert d["name"] == "run"
        child = d["children"][0]
        assert child["meta"] == {"curve": "bn128"}
        assert child["counters"] == {"bigint_mul_4": 3}
        for key in ("start_s", "wall_s", "cpu_s", "rss_peak_delta_kb",
                    "gc_collections"):
            assert key in child

    def test_to_dict_omits_empty_fields(self):
        with recording() as rec:
            pass
        d = rec.root.to_dict()
        assert "children" not in d
        assert "counters" not in d
        assert "meta" not in d

    def test_render_spans_text(self):
        text = render_spans(self.make_tree())
        lines = text.splitlines()
        assert "span" in lines[0] and "wall" in lines[0] and "gc" in lines[0]
        assert any(line.startswith("run") for line in lines)
        assert any("  stage" in line for line in lines)
