"""CircuitGraph: the incidence/connectivity layer under the lint rules."""

from repro.spice.devices.mosfet import Mosfet
from repro.spice.devices.passives import Capacitor, Resistor
from repro.spice.devices.sources import CurrentSource, VoltageSource
from repro.spice.library import generic_018
from repro.spice.lint.graph import (
    CircuitGraph,
    dc_edges,
    non_current_source_edges,
    structural_edges,
)
from repro.spice.netlist import Circuit


def rc_ladder():
    ckt = Circuit("rc")
    ckt.add(VoltageSource("v1", "in", "0", dc=1.0))
    ckt.add(Resistor("r1", "in", "out", 1e3))
    ckt.add(Capacitor("c1", "out", "0", 1e-12))
    return ckt


class TestConstruction:
    def test_nodes_and_degrees(self):
        g = CircuitGraph(rc_ladder())
        assert set(g.nodes) == {"0", "in", "out"}
        assert g.degree("in") == 2   # v1 and r1
        assert g.degree("out") == 2  # r1 and c1
        assert g.degree("0") == 2    # v1 and c1
        assert g.has_ground

    def test_ground_aliases_collapse(self):
        ckt = Circuit("t")
        ckt.add(Resistor("r1", "a", "GND", 1.0))
        ckt.add(Resistor("r2", "a", "vss!", 1.0))
        g = CircuitGraph(ckt)
        assert set(g.nodes) == {"0", "a"}
        assert g.degree("gnd") == 2  # queries normalize too

    def test_devices_at_deduplicates(self):
        ckt = Circuit("t")
        # Both terminals of rshort on one node: one device, not two.
        ckt.add(Resistor("rshort", "a", "a", 1.0))
        ckt.add(Resistor("r2", "a", "0", 1.0))
        g = CircuitGraph(ckt)
        assert [d.name for d in g.devices_at("a")] == ["rshort", "r2"]

    def test_external_nodes_exist_without_devices(self):
        g = CircuitGraph(Circuit("empty"), external=["port_a"])
        assert "port_a" in g.nodes
        assert g.is_external("port_a")
        assert g.degree("port_a") == 0


class TestEdgeViews:
    def test_structural_edges_chain_all_terminals(self):
        m = Mosfet("m1", "d", "g", "s", "b", "nch", w=1e-6, l=1e-6)
        assert list(structural_edges(m)) == [
            ("d", "g"), ("g", "s"), ("s", "b")]

    def test_dc_edges_resistor_conducts(self):
        r = Resistor("r1", "a", "b", 1.0)
        assert list(dc_edges(r)) == [("a", "b")]

    def test_dc_edges_capacitor_blocks(self):
        c = Capacitor("c1", "a", "b", 1e-12)
        assert list(dc_edges(c)) == []

    def test_dc_edges_current_source_blocks(self):
        i = CurrentSource("i1", "a", "b", dc=1e-3)
        assert list(dc_edges(i)) == []

    def test_dc_edges_mosfet_gate_open(self):
        m = Mosfet("m1", "d", "g", "s", "b", "nch", w=1e-6, l=1e-6)
        edges = list(dc_edges(m))
        flat = {n for e in edges for n in e}
        assert "g" not in flat            # gate is purely capacitive
        assert {"d", "s", "b"} <= flat    # channel + junctions conduct

    def test_non_current_source_edges(self):
        i = CurrentSource("i1", "a", "b", dc=1e-3)
        r = Resistor("r1", "a", "b", 1.0)
        assert list(non_current_source_edges(i)) == []
        assert list(non_current_source_edges(r)) == [("a", "b")]


class TestConnectivity:
    def test_structural_single_component(self):
        g = CircuitGraph(rc_ladder())
        comps = g.structural_components()
        assert len(comps) == 1
        assert comps[0] == {"0", "in", "out"}

    def test_structural_island_detected(self):
        ckt = rc_ladder()
        ckt.add(Resistor("ri", "x", "y", 1.0))
        comps = CircuitGraph(ckt).structural_components()
        assert {"x", "y"} in comps

    def test_dc_ac_coupled_stage_still_anchored(self):
        # in--r1--mid--c1--out--r2--0: both sides of the cap reach
        # ground through a resistive branch, so one grounded component
        # plus the cut across c1.
        ckt = Circuit("t")
        ckt.add(VoltageSource("v1", "in", "0", dc=1.0))
        ckt.add(Resistor("r1", "in", "mid", 1e3))
        ckt.add(Capacitor("c1", "mid", "out", 1e-12))
        ckt.add(Resistor("r2", "out", "0", 1e3))
        comps = CircuitGraph(ckt).dc_components()
        assert len(comps) == 1
        assert comps[0] == {"0", "in", "mid", "out"}

    def test_dc_components_split_by_capacitors(self):
        # Caps on both sides of 'out': it has no DC path anywhere.
        ckt = Circuit("t2")
        ckt.add(VoltageSource("v1", "in", "0", dc=1.0))
        ckt.add(Resistor("r1", "in", "mid", 1e3))
        ckt.add(Capacitor("c1", "mid", "out", 1e-12))
        ckt.add(Capacitor("c2", "out", "0", 1e-12))
        comps = CircuitGraph(ckt).dc_components()
        assert {"out"} in comps

    def test_anchored_by_ground_and_external(self):
        g = CircuitGraph(rc_ladder(), external=["in"])
        assert g.anchored({"0", "x"})
        assert g.anchored({"in"})
        assert not g.anchored({"out", "x"})

    def test_repr(self):
        assert "3 devices" in repr(CircuitGraph(rc_ladder()))


class TestGenericLibrarySanity:
    def test_mos_divider_is_one_dc_component(self):
        cards = generic_018()
        ckt = Circuit("t", models=[cards["nch"]])
        ckt.add(VoltageSource("vdd", "vdd", "0", dc=1.8))
        ckt.add(Resistor("rd", "vdd", "d", 1e4))
        ckt.add(Mosfet("m1", "d", "g", "0", "0", "nch", w=1e-6, l=1e-6))
        ckt.add(VoltageSource("vg", "g", "0", dc=0.9))
        comps = CircuitGraph(ckt).dc_components()
        # The gate is driven by vg (a DC branch), so everything anchors.
        assert len(comps) == 1
