"""Pinned overhead and coverage guarantees of the tracing layer.

Two acceptance properties of repro.obs:

* **Disabled cost.** With tracing off, ``SignalPipeline.run_chunk``
  runs the bare stage loop and never enters a span - the disabled
  overhead is one module attribute load and one branch per chunk.
  (Checked structurally: Tier-1 asserts no wall-clock budgets.)
* **Enabled coverage.** A traced fig6 fast-scale run must produce a
  span tree whose leaf (per-stage) walls sum to within 10% of the
  traced total wall - the instrumentation actually covers the hot
  path, not a corner of it.
"""

import numpy as np
import pytest

from repro.experiments.fig6_ber import run_fig6
from repro.link.backends import calibrate
from repro.link.spec import LinkSpec
from repro.obs import trace
from repro.uwb.config import TEST_CONFIG


@pytest.fixture(autouse=True)
def _tracing_disabled():
    trace.disable()
    trace.reset()
    yield
    trace.disable()
    trace.reset()


@pytest.fixture
def pipeline(link_front):
    cache = calibrate(LinkSpec(config=TEST_CONFIG))
    return link_front(TEST_CONFIG, cache.bpf)


class TestDisabledOverhead:
    def test_disabled_chunk_loop_never_enters_span(self, monkeypatch,
                                                   pipeline):
        """With tracing off, ``run_chunk`` takes the bare stage loop:
        a ``trace.span`` that raises is never reached."""
        assert not trace.ENABLED

        def no_span(name):
            raise AssertionError(f"disabled chunk loop entered {name!r}")

        monkeypatch.setattr(trace, "span", no_span)
        state = pipeline.run_chunk(64, np.random.default_rng(3))
        assert state.signal.shape == (64, 2, TEST_CONFIG.samples_per_slot)

    def test_disabled_run_records_no_spans(self, pipeline):
        root = trace.reset()
        pipeline.run_chunk(64, np.random.default_rng(3))
        assert root.children == {}


class TestEnabledCoverage:
    def test_fig6_fast_stage_walls_explain_the_total_wall(self):
        """Acceptance: the fig6 fast-scale span tree's per-stage walls
        sum to within 10% of the traced total wall."""
        with trace.collect("fig6") as root:
            run_fig6(ebn0_grid=(2, 6, 10, 14), quick=True, seed=7)
        walls = root.leaf_walls()
        assert walls, "traced fig6 produced no leaf spans"
        # The five pipeline stages all report.
        for name in ("link.tx", "link.channel", "link.combine",
                     "link.afe", "link.decision"):
            assert name in walls, f"missing stage span {name}"
        explained = sum(walls.values())
        assert explained <= root.total_s * 1.001
        assert explained >= 0.90 * root.total_s, (
            f"stage walls explain only "
            f"{100 * explained / root.total_s:.1f}% of the traced wall")
        assert root.coverage() == pytest.approx(
            explained / root.total_s)
