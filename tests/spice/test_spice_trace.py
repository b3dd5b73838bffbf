"""Spans and metrics of the Spice engine inside the Table-1 ELDO row.

Structural checks only: which spans exist and where they nest, never
how long they took.
"""

import pytest

from repro.experiments.table1_cpu import run_table1
from repro.obs import metrics, trace

SPICE_SPANS = ("spice.step", "spice.newton", "spice.stamp",
               "spice.mos_eval", "spice.solve", "spice.caps")


@pytest.fixture(autouse=True)
def _tracing_disabled():
    trace.disable()
    trace.reset()
    yield
    trace.disable()
    trace.reset()


def _short_table1():
    # Two symbols: the shortest span the harness runs.
    return run_table1(simulated_time=1e-9, seed=1,
                      measure_reference=False)


def _names(node) -> set[str]:
    return {n.name for _depth, n in node.walk()}


def test_traced_eldo_row_has_spice_spans():
    metrics.REGISTRY.reset()
    with trace.collect("table1") as root:
        result = _short_table1()
    assert (result.bits["ELDO"] == result.tx_bits).all()
    eldo = root.find("scenario:ELDO")
    assert eldo is not None
    assert set(SPICE_SPANS) <= _names(eldo)
    # The behavioral rows never reach the Spice engine.
    for label in ("IDEAL", "VHDL-AMS"):
        assert not _names(root.find(f"scenario:{label}")) & set(SPICE_SPANS)

    step = eldo.find("spice.step")
    newton = step.children["spice.newton"]
    assert set(newton.children) == {"spice.stamp", "spice.solve"}
    assert "spice.mos_eval" in newton.children["spice.stamp"].children
    # One Newton call per step; each iteration stamps and solves once.
    assert newton.count == step.count
    stamp = newton.children["spice.stamp"]
    assert stamp.count == newton.children["spice.solve"].count
    # The converged call's final MOSFET evaluation feeds the
    # capacitances and the next step's first iteration: nothing is
    # evaluated at the accepted point, and only the second and later
    # iterations evaluate inside the stamp.
    assert "spice.mos_eval" not in step.children
    assert step.children["spice.caps"].count == step.count
    assert not step.children["spice.caps"].children
    assert stamp.children["spice.mos_eval"].count == (stamp.count
                                                      - newton.count)

    hist = metrics.REGISTRY.snapshot().histograms["spice.newton.iterations"]
    newton_calls = sum(n.count for _d, n in root.walk()
                       if n.name == "spice.newton")
    stamps = sum(n.count for _d, n in root.walk()
                 if n.name == "spice.stamp")
    assert hist.count == newton_calls
    assert hist.total == stamps


def test_disabled_run_creates_no_span_nodes():
    assert not trace.ENABLED
    root = trace.reset()
    _short_table1()
    assert root.children == {}
