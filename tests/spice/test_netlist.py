"""Circuit and subcircuit data model."""

import pytest

from repro.spice.devices.mosfet import Mosfet
from repro.spice.devices.passives import Capacitor, Resistor
from repro.spice.devices.sources import VoltageSource
from repro.spice.errors import NetlistError
from repro.spice.library import generic_018
from repro.spice.netlist import Circuit, Subckt, is_ground, normalize_node


class TestNodes:
    @pytest.mark.parametrize(
        "alias", ["0", "gnd", "GND", "Gnd", "gnd!", "GND!", "vss!", "VSS!"])
    def test_ground_aliases(self, alias):
        assert is_ground(alias)
        assert normalize_node(alias) == "0"

    @pytest.mark.parametrize("node", ["vss", "vdd", "out", "agnd", "gnd2"])
    def test_non_ground_nodes(self, node):
        assert not is_ground(node)
        assert normalize_node(node) == node.lower()

    def test_ground_aliases_unify_in_circuit(self):
        # All spellings land on the single net "0": a device wired to
        # GND and one wired to vss! share a node.
        ckt = Circuit("t")
        ckt.add(Resistor("r1", "a", "GND", 1.0))
        ckt.add(Resistor("r2", "a", "vss!", 1.0))
        assert ckt.node_names() == ["a"]
        assert [dev.nodes[1] for dev in ckt.devices] == ["0", "0"]

    def test_case_insensitive_nodes(self):
        ckt = Circuit("t")
        ckt.add(Resistor("R1", "OUT", "0", 1.0))
        assert ckt.node_names() == ["out"]


class TestCircuit:
    def test_duplicate_device_rejected(self):
        ckt = Circuit("t")
        ckt.add(Resistor("r1", "a", "0", 1.0))
        with pytest.raises(NetlistError):
            ckt.add(Resistor("R1", "b", "0", 1.0))

    def test_devices_of(self):
        ckt = Circuit("t")
        ckt.add(Resistor("r1", "a", "0", 1.0),
                VoltageSource("v1", "a", "0", dc=1.0))
        assert len(ckt.devices_of(Resistor)) == 1
        assert len(ckt.devices_of(VoltageSource)) == 1

    def test_validate_requires_ground(self):
        # The lint engine's ground rule is the pre-flight gate.
        from repro.spice.lint.engine import preflight_check

        ckt = Circuit("t")
        ckt.add(Resistor("r1", "a", "b", 1.0))
        with pytest.raises(NetlistError):
            preflight_check(ckt, rules=("SP-GND-001",))

    def test_validate_shim_passes_grounded(self):
        from repro.spice.lint.engine import preflight_check

        ckt = Circuit("t")
        ckt.add(Resistor("r1", "a", "0", 1.0))
        preflight_check(ckt, rules=("SP-GND-001",))

    def test_model_conflict(self):
        cards = generic_018()
        ckt = Circuit("t", models=[cards["nch"]])
        ckt.add_model(cards["nch"])  # identical: fine
        from repro.spice.devices.mosfet import MosModel
        with pytest.raises(NetlistError):
            ckt.add_model(MosModel(name="nch", vto=0.1))

    def test_len_and_repr(self):
        ckt = Circuit("t")
        ckt.add(Resistor("r1", "a", "0", 1.0))
        assert len(ckt) == 1
        assert "1 devices" in repr(ckt)


class TestSubckt:
    def _divider(self) -> Subckt:
        inner = Circuit("divider")
        inner.add(Resistor("r1", "in", "mid", 1e3))
        inner.add(Resistor("r2", "mid", "gnd", 1e3))
        return Subckt(name="div", ports=["in", "mid"], circuit=inner)

    def test_flatten_renames_internals(self):
        top = Circuit("top")
        top.add_subckt(self._divider())
        top.add(VoltageSource("v1", "vin", "0", dc=1.0))
        top.instantiate("x1", "div", ["vin", "vout"])
        nodes = {d.name: d.nodes for d in top.devices}
        assert nodes["x1.r1"] == ("vin", "vout")
        # ground stays global
        assert nodes["x1.r2"] == ("vout", "0")

    def test_port_count_mismatch(self):
        top = Circuit("top")
        top.add_subckt(self._divider())
        with pytest.raises(NetlistError):
            top.instantiate("x1", "div", ["a"])

    def test_unknown_subckt(self):
        top = Circuit("top")
        with pytest.raises(NetlistError):
            top.instantiate("x1", "nope", ["a", "b"])

    def test_duplicate_ports_rejected(self):
        with pytest.raises(NetlistError):
            Subckt(name="bad", ports=["a", "a"], circuit=Circuit("x"))

    def test_models_merged(self):
        cards = generic_018()
        inner = Circuit("amp", models=[cards["nch"]])
        inner.add(Mosfet("m1", "d", "g", "gnd", "gnd", "nch",
                         w=1e-6, l=1e-6))
        sub = Subckt(name="amp", ports=["d", "g"], circuit=inner)
        top = Circuit("top")
        top.add_subckt(sub)
        top.instantiate("x1", "amp", ["n1", "n2"])
        assert "nch" in top.models

    def test_two_instances_are_independent(self):
        top = Circuit("top")
        top.add_subckt(self._divider())
        top.instantiate("x1", "div", ["a", "b"])
        top.instantiate("x2", "div", ["b", "c"])
        assert len(top.devices) == 4
        assert top.devices[2].name == "x2.r1"
        assert top.devices[2].nodes == ("b", "c")
