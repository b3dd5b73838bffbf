"""The hierarchical span tracer (repro.obs.trace).

The contracts under test: same-name spans aggregate instead of
growing the tree, the disabled path is a shared no-op, span trees are
thread-local, exceptions still close spans, and a TraceReport
round-trips through the tagged JSON document.
"""

import threading
import time

import pytest

from repro.obs import trace
from repro.obs.export import TRACE_FORMAT, TraceReport, render_trace
from repro.obs.metrics import MetricsRegistry


@pytest.fixture(autouse=True)
def _clean_tracer():
    """Every test starts disabled with a fresh thread-local tree."""
    trace.disable()
    trace.reset()
    yield
    trace.disable()
    trace.reset()


class TestSpanTree:
    def test_nested_spans_build_a_tree(self):
        with trace.collect("root") as root:
            with trace.span("outer"):
                with trace.span("inner"):
                    pass
        outer = root.children["outer"]
        assert outer.count == 1
        assert list(outer.children) == ["inner"]
        assert outer.children["inner"].count == 1

    def test_same_name_spans_aggregate(self):
        """A hot loop entering one span N times produces one node
        carrying count=N, not N nodes."""
        with trace.collect("root") as root:
            for _ in range(1000):
                with trace.span("chunk"):
                    pass
        assert list(root.children) == ["chunk"]
        assert root.children["chunk"].count == 1000

    def test_same_name_under_different_parents_stay_separate(self):
        with trace.collect("root") as root:
            with trace.span("a"):
                with trace.span("work"):
                    pass
            with trace.span("b"):
                with trace.span("work"):
                    pass
        assert root.children["a"].children["work"].count == 1
        assert root.children["b"].children["work"].count == 1

    def test_span_accumulates_wall_time(self):
        with trace.collect("root") as root:
            with trace.span("sleep"):
                time.sleep(0.01)
        node = root.children["sleep"]
        assert node.total_s >= 0.009
        assert root.total_s >= node.total_s

    def test_exception_still_closes_the_span(self):
        with trace.collect("root") as root:
            with pytest.raises(ValueError):
                with trace.span("boom"):
                    raise ValueError("bang")
            # The stack unwound: the next span is a sibling, not a
            # child of the failed one.
            with trace.span("after"):
                pass
        assert root.children["boom"].count == 1
        assert "after" in root.children
        assert "after" not in root.children["boom"].children

    def test_leaf_walls_never_double_count(self):
        """Interior spans wrap their leaves; only leaves are summed."""
        with trace.collect("root") as root:
            with trace.span("outer"):
                with trace.span("leaf_a"):
                    time.sleep(0.002)
                with trace.span("leaf_b"):
                    time.sleep(0.002)
        walls = root.leaf_walls()
        assert set(walls) == {"leaf_a", "leaf_b"}
        assert sum(walls.values()) <= root.total_s

    def test_leaf_walls_merge_same_leaf_across_parents(self):
        with trace.collect("root") as root:
            with trace.span("a"):
                with trace.span("work"):
                    pass
            with trace.span("b"):
                with trace.span("work"):
                    pass
        walls = root.leaf_walls()
        expected = (root.children["a"].children["work"].total_s
                    + root.children["b"].children["work"].total_s)
        assert walls["work"] == pytest.approx(expected)

    def test_coverage_is_leaf_share_of_root_wall(self):
        with trace.collect("root") as root:
            with trace.span("timed"):
                time.sleep(0.005)
        cov = root.coverage()
        assert 0.0 < cov <= 1.0
        assert cov == pytest.approx(
            sum(root.leaf_walls().values()) / root.total_s)

    def test_childless_root_explains_nothing(self):
        """A root with no spans under it is not its own leaf: its
        coverage is 0, not 100%."""
        with trace.collect("root") as root:
            time.sleep(0.002)
        assert root.total_s > 0
        assert root.leaf_walls() == {}
        assert root.coverage() == 0.0

    def test_leaf_named_like_the_root_counts(self):
        with trace.collect("run") as root:
            with trace.span("run"):
                time.sleep(0.002)
        assert root.leaf_walls() == {"run": root.children["run"].total_s}

    def test_find_walks_depth_first(self):
        with trace.collect("root") as root:
            with trace.span("a"):
                with trace.span("needle"):
                    pass
        assert root.find("needle") is root.children["a"].children["needle"]
        assert root.find("missing") is None


class TestWait:
    def test_wait_lands_beside_the_span_it_interrupts(self):
        """A wait inside a span is filed as the span's sibling and
        taken out of its wall: the span stays a leaf and the leaves
        never overlap."""
        with trace.collect("root") as root:
            with trace.span("stage"):
                with trace.wait("wait"):
                    time.sleep(0.004)
        stage, wait = root.children["stage"], root.children["wait"]
        assert stage.children == {}
        assert (stage.count, wait.count) == (1, 1)
        assert wait.total_s >= 0.004
        assert 0.0 <= stage.total_s < wait.total_s
        assert set(root.leaf_walls()) == {"stage", "wait"}
        assert sum(root.leaf_walls().values()) <= root.total_s

    def test_wait_inside_an_interior_span_is_its_child(self):
        """A wait taken while the innermost open span already has
        children (a scenario around its stages) is one more child of
        it, and the span's wall keeps the blocked time."""
        with trace.collect("root") as root:
            with trace.span("scenario"):
                with trace.span("stage"):
                    pass
                with trace.wait("wait"):
                    time.sleep(0.004)
        scenario = root.children["scenario"]
        assert list(root.children) == ["scenario"]
        assert list(scenario.children) == ["stage", "wait"]
        wait = scenario.children["wait"]
        assert (wait.count, wait.total_s >= 0.004) == (1, True)
        assert scenario.total_s >= wait.total_s
        assert set(scenario.leaf_walls()) == {"stage", "wait"}

    def test_wait_outside_any_span_lands_under_the_root(self):
        with trace.collect("root") as root:
            with trace.wait("wait"):
                pass
        assert list(root.children) == ["wait"]

    def test_disabled_wait_is_the_shared_noop(self):
        assert trace.wait("x") is trace._NOOP


class TestEnableDisable:
    def test_disabled_span_is_the_shared_noop(self):
        assert trace.span("x") is trace.span("y") is trace._NOOP

    def test_disabled_spans_record_nothing(self):
        root = trace.reset()
        with trace.span("ghost"):
            pass
        assert root.children == {}

    def test_collect_restores_prior_disabled_state(self):
        assert not trace.ENABLED
        with trace.collect("run"):
            assert trace.ENABLED
        assert not trace.ENABLED

    def test_collect_restores_prior_enabled_state(self):
        trace.enable()
        with trace.collect("run"):
            pass
        assert trace.ENABLED

    def test_collect_stamps_root_wall_on_exception(self):
        with pytest.raises(RuntimeError):
            with trace.collect("run") as root:
                time.sleep(0.002)
                raise RuntimeError("die")
        assert root.count == 1
        assert root.total_s >= 0.001
        assert not trace.ENABLED


class TestThreadIsolation:
    def test_threads_trace_into_independent_trees(self):
        main = trace.reset()
        trace.enable()
        roots = {}

        def work(name):
            root = trace.reset(name)
            with trace.span(name):
                pass
            roots[name] = root

        threads = [threading.Thread(target=work, args=(f"t{i}",))
                   for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for i in range(4):
            assert list(roots[f"t{i}"].children) == [f"t{i}"]
        # The main thread's tree never saw any of it.
        assert main.children == {}


class TestTimedDecorator:
    def test_timed_traces_calls_when_enabled(self):
        @trace.timed("fn")
        def fn(x):
            return x + 1

        disabled_root = trace.reset()
        assert fn(1) == 2  # disabled: plain passthrough
        assert disabled_root.children == {}
        with trace.collect("root") as root:
            assert fn(2) == 3
        assert root.children["fn"].count == 1
        assert fn.__wrapped__(0) == 1


class TestTraceReport:
    def _report(self):
        registry = MetricsRegistry()
        registry.counter("demo.hits").inc(3)
        registry.histogram("demo.wall_s").observe(0.25)
        with trace.collect("fig6") as root:
            with trace.span("link.tx"):
                pass
            with trace.span("link.afe"):
                time.sleep(0.002)
        return TraceReport.from_run("fig6", root, registry.snapshot())

    def test_from_run_captures_stage_walls(self):
        report = self._report()
        assert set(report.stage_walls) == {"link.tx", "link.afe"}
        assert report.wall_s == report.root.total_s

    def test_json_round_trip(self):
        report = self._report()
        text = report.to_json()
        assert TRACE_FORMAT in text
        back = TraceReport.from_json(text)
        assert back.experiment == "fig6"
        assert back.root.name == "fig6"
        assert set(back.root.children) == {"link.tx", "link.afe"}
        assert back.root.total_s == pytest.approx(report.root.total_s)
        assert back.stage_walls == pytest.approx(report.stage_walls)
        assert back.metrics.counters == {"demo.hits": 3}
        assert back.metrics.histograms["demo.wall_s"].count == 1

    def test_from_json_rejects_foreign_payloads(self):
        from repro.core import serialization

        text = serialization.dump_tagged(TRACE_FORMAT, {"not": "a report"})
        with pytest.raises(ValueError, match="TraceReport"):
            TraceReport.from_json(text)

    def test_from_json_rejects_the_previous_format(self):
        """A ``repro.trace/1`` document (whose metrics still carried
        gauges) fails on its format marker."""
        text = self._report().to_json().replace(TRACE_FORMAT,
                                                "repro.trace/1")
        with pytest.raises(ValueError, match="repro.trace/1"):
            TraceReport.from_json(text)

    def test_render_trace_shows_counts_and_coverage(self):
        report = self._report()
        out = render_trace(report.root, title="trace: fig6")
        assert out.startswith("trace: fig6")
        assert "link.afe" in out and "ms" in out
        assert "coverage:" in out and "explained by" in out
