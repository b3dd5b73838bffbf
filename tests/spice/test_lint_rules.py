"""The lint rule engine: every built-in rule, the catalog, the report."""

import pytest

from repro.circuits import builtin_circuits
from repro.spice.devices.controlled import Vccs, Vcvs
from repro.spice.devices.diode import Diode
from repro.spice.devices.mosfet import Mosfet
from repro.spice.devices.passives import Capacitor, Resistor
from repro.spice.devices.sources import CurrentSource, VoltageSource
from repro.spice.errors import NetlistLintError
from repro.spice.library import generic_018
from repro.spice.lint.engine import (
    lint_circuit,
    lint_netlist,
    lint_subckt,
    preflight_check,
)
from repro.spice.lint.report import LintReport, Severity
from repro.spice.lint.rules import RULES, get_rules
from repro.spice.netlist import Circuit, Subckt


def clean_rc():
    ckt = Circuit("rc")
    ckt.add(VoltageSource("v1", "in", "0", dc=1.0))
    ckt.add(Resistor("r1", "in", "out", 1e3))
    ckt.add(Resistor("r2", "out", "0", 1e3))
    ckt.add(Capacitor("c1", "out", "0", 1e-12))
    return ckt


def fired(report, rule_id):
    return [f for f in report.findings if f.rule_id == rule_id]


class TestCleanCircuit:
    def test_no_errors_on_clean_rc(self):
        report = lint_circuit(clean_rc())
        assert report.ok
        assert report.errors == ()
        assert report.n_devices == 4

    def test_preflight_returns_clean_report(self):
        report = preflight_check(clean_rc())
        assert report.ok


class TestGroundRule:
    def test_fires_without_ground(self):
        ckt = Circuit("t")
        ckt.add(Resistor("r1", "a", "b", 1.0))
        assert fired(lint_circuit(ckt), "SP-GND-001")

    def test_silent_on_empty_circuit(self):
        assert not fired(lint_circuit(Circuit("t")), "SP-GND-001")

    def test_silent_with_external_reference(self):
        # A stand-alone subckt body may ground itself through a port.
        ckt = Circuit("t")
        ckt.add(Resistor("r1", "a", "b", 1.0))
        report = lint_circuit(ckt, external=["a", "b"])
        assert not fired(report, "SP-GND-001")


class TestFloatingRule:
    def test_fires_on_degree_one(self):
        ckt = clean_rc()
        ckt.add(Resistor("rdang", "out", "hang", 1e3))
        findings = fired(lint_circuit(ckt), "SP-FLOAT-001")
        assert len(findings) == 1
        assert findings[0].nodes == ("hang",)
        assert findings[0].devices == ("rdang",)

    def test_ground_never_floats(self):
        ckt = Circuit("t")
        ckt.add(VoltageSource("v1", "a", "0", dc=1.0))
        ckt.add(Resistor("r1", "a", "0", 1.0))
        assert not fired(lint_circuit(ckt), "SP-FLOAT-001")

    def test_external_ports_exempt(self):
        ckt = Circuit("t")
        ckt.add(Resistor("r1", "port", "0", 1.0))
        assert fired(lint_circuit(ckt), "SP-FLOAT-001")
        assert not fired(lint_circuit(ckt, external=["port"]),
                         "SP-FLOAT-001")


class TestDcPathRule:
    def test_fires_on_cap_only_node(self):
        ckt = clean_rc()
        ckt.add(Capacitor("c2", "out", "iso", 1e-12))
        ckt.add(Capacitor("c3", "iso", "0", 1e-12))
        findings = fired(lint_circuit(ckt), "SP-DCPATH-001")
        assert len(findings) == 1
        assert "iso" in findings[0].nodes

    def test_fires_on_current_source_fed_node(self):
        # i1 pushes current into a node drained only by a capacitor.
        ckt = clean_rc()
        ckt.add(CurrentSource("i1", "0", "iso", dc=1e-3))
        ckt.add(Capacitor("c9", "iso", "0", 1e-12))
        assert fired(lint_circuit(ckt), "SP-DCPATH-001")

    def test_gate_only_net_fires(self):
        cards = generic_018()
        ckt = Circuit("t", models=[cards["nch"]])
        ckt.add(VoltageSource("vdd", "vdd", "0", dc=1.8))
        ckt.add(Resistor("rd", "vdd", "d", 1e4))
        ckt.add(Mosfet("m1", "d", "gate", "0", "0", "nch",
                       w=1e-6, l=1e-6))
        # The gate hangs off a capacitor instead of a driver.
        ckt.add(Capacitor("cg", "gate", "0", 1e-15))
        findings = fired(lint_circuit(ckt), "SP-DCPATH-001")
        assert len(findings) == 1
        assert "gate" in findings[0].nodes

    def test_clean_when_resistively_anchored(self):
        assert not fired(lint_circuit(clean_rc()), "SP-DCPATH-001")


class TestIslandRule:
    def test_fires_on_disconnected_ring(self):
        ckt = clean_rc()
        ckt.add(Resistor("ra", "x", "y", 1.0))
        ckt.add(Resistor("rb", "y", "z", 1.0))
        ckt.add(Resistor("rc_", "z", "x", 1.0))
        findings = fired(lint_circuit(ckt), "SP-ISLAND-001")
        assert len(findings) == 1
        assert findings[0].nodes == ("x", "y", "z")
        assert findings[0].devices == ("ra", "rb", "rc_")

    def test_capacitive_bridge_is_not_an_island(self):
        # Structurally connected through a cap: SP-DCPATH's business,
        # not SP-ISLAND's.
        ckt = clean_rc()
        ckt.add(Capacitor("cb", "out", "far", 1e-12))
        ckt.add(Resistor("rf", "far", "far2", 1.0))
        report = lint_circuit(ckt)
        assert not fired(report, "SP-ISLAND-001")
        assert fired(report, "SP-DCPATH-001")


class TestPortRule:
    def test_fires_on_unconnected_port(self):
        inner = Circuit("div")
        inner.add(Resistor("r1", "in", "out", 1.0))
        sub = Subckt(name="div", ports=["in", "out", "nc"], circuit=inner)
        host = Circuit("host")
        host.add_subckt(sub)
        findings = fired(lint_circuit(host), "SP-PORT-001")
        assert len(findings) == 1
        assert findings[0].nodes == ("nc",)
        assert "'nc'" in findings[0].message

    def test_clean_definition_passes(self):
        inner = Circuit("div")
        inner.add(Resistor("r1", "in", "out", 1.0))
        sub = Subckt(name="div", ports=["in", "out"], circuit=inner)
        host = Circuit("host")
        host.add_subckt(sub)
        assert not fired(lint_circuit(host), "SP-PORT-001")


class TestShortRules:
    def test_shorted_resistor_warns(self):
        ckt = clean_rc()
        ckt.add(Resistor("rs", "out", "out", 1.0))
        findings = fired(lint_circuit(ckt), "SP-SHORT-001")
        assert len(findings) == 1
        assert findings[0].severity == Severity.WARN

    def test_shorted_voltage_source_errors(self):
        ckt = clean_rc()
        ckt.add(VoltageSource("vs", "out", "out", dc=1.0))
        findings = fired(lint_circuit(ckt), "SP-SHORT-002")
        assert len(findings) == 1
        assert findings[0].severity == Severity.ERROR
        assert not fired(lint_circuit(ckt), "SP-SHORT-001")


class TestValueRule:
    def test_fires_on_nonpositive_resistance(self):
        ckt = clean_rc()
        ckt.add(Resistor("rneg", "in", "out", 1.0))
        # The ctor forbids non-positive values, so corrupt the stored
        # copy directly: the rule is defense in depth for netlists that
        # arrive through deserialization or future device types.
        object.__setattr__(ckt.device("rneg"), "value", -5.0)
        findings = fired(lint_circuit(ckt), "SP-VALUE-001")
        assert len(findings) == 1
        assert findings[0].devices == ("rneg",)


class TestVoltageLoopRule:
    def test_parallel_sources_fire(self):
        ckt = Circuit("t")
        ckt.add(VoltageSource("v1", "a", "0", dc=1.0))
        ckt.add(VoltageSource("v2", "a", "0", dc=2.0))
        ckt.add(Resistor("r1", "a", "0", 1.0))
        assert fired(lint_circuit(ckt), "SP-VLOOP-001")

    def test_vcvs_closing_loop_fires(self):
        ckt = Circuit("t")
        ckt.add(VoltageSource("v1", "a", "0", dc=1.0))
        ckt.add(Vcvs("e1", "a", "0", "a", "0", gain=2.0))
        ckt.add(Resistor("r1", "a", "0", 1.0))
        assert fired(lint_circuit(ckt), "SP-VLOOP-001")

    def test_series_sources_pass(self):
        ckt = Circuit("t")
        ckt.add(VoltageSource("v1", "a", "0", dc=1.0))
        ckt.add(VoltageSource("v2", "b", "a", dc=1.0))
        ckt.add(Resistor("r1", "b", "0", 1.0))
        assert not fired(lint_circuit(ckt), "SP-VLOOP-001")


class TestCurrentCutsetRule:
    def test_series_current_sources_fire(self):
        # mid sits between two current sources: KCL can't balance
        # arbitrary values.
        ckt = Circuit("t")
        ckt.add(VoltageSource("v1", "a", "0", dc=1.0))
        ckt.add(Resistor("r1", "a", "0", 1.0))
        ckt.add(CurrentSource("i1", "a", "mid", dc=1e-3))
        ckt.add(CurrentSource("i2", "mid", "0", dc=2e-3))
        findings = fired(lint_circuit(ckt), "SP-ICUT-001")
        assert len(findings) == 1
        assert findings[0].nodes == ("mid",)
        assert findings[0].devices == ("i1", "i2")

    def test_vccs_counts_as_current_source(self):
        ckt = Circuit("t")
        ckt.add(VoltageSource("v1", "a", "0", dc=1.0))
        ckt.add(Resistor("r1", "a", "0", 1.0))
        ckt.add(Vccs("g1", "a", "mid", "a", "0", gain=1e-3))
        ckt.add(CurrentSource("i2", "mid", "0", dc=2e-3))
        assert fired(lint_circuit(ckt), "SP-ICUT-001")

    def test_resistor_in_parallel_passes(self):
        ckt = Circuit("t")
        ckt.add(VoltageSource("v1", "a", "0", dc=1.0))
        ckt.add(Resistor("r1", "a", "0", 1.0))
        ckt.add(CurrentSource("i1", "a", "mid", dc=1e-3))
        ckt.add(Resistor("rm", "mid", "0", 1e3))
        assert not fired(lint_circuit(ckt), "SP-ICUT-001")


class TestModelRules:
    def test_missing_model_errors(self):
        ckt = clean_rc()
        ckt.add(Diode("d1", "in", "out", "nope"))
        findings = fired(lint_circuit(ckt), "SP-MODEL-001")
        assert len(findings) == 1
        assert "'nope'" in findings[0].message

    def test_unused_model_is_info(self):
        cards = generic_018()
        ckt = Circuit("t", models=[cards["nch"]])
        ckt.add(VoltageSource("v1", "a", "0", dc=1.0))
        ckt.add(Resistor("r1", "a", "0", 1.0))
        findings = fired(lint_circuit(ckt), "SP-UNUSED-001")
        assert len(findings) == 1
        assert findings[0].severity == Severity.INFO

    def test_unused_subckt_is_info(self):
        inner = Circuit("x")
        inner.add(Resistor("r1", "a", "b", 1.0))
        host = clean_rc()
        host.add_subckt(Subckt(name="spare", ports=["a", "b"],
                               circuit=inner))
        findings = fired(lint_circuit(host), "SP-UNUSED-002")
        assert len(findings) == 1
        host.instantiate("x1", "spare", ["in", "out"])
        assert not fired(lint_circuit(host), "SP-UNUSED-002")


class TestRegistry:
    def test_all_rules_have_stable_ids(self):
        # Catalog order is the order of ``repro lint --list``.
        assert [r.rule_id for r in RULES] == [
            "SP-GND-001", "SP-FLOAT-001", "SP-DCPATH-001",
            "SP-ISLAND-001", "SP-PORT-001", "SP-SHORT-001",
            "SP-SHORT-002", "SP-VALUE-001", "SP-VLOOP-001",
            "SP-ICUT-001", "SP-MODEL-001", "SP-UNUSED-001",
            "SP-UNUSED-002"]
        assert get_rules() == RULES

    def test_get_rules_unknown_id(self):
        with pytest.raises(KeyError, match="SP-NOPE-001"):
            get_rules(["SP-NOPE-001"])

    def test_get_rules_severity_floor(self):
        errors = get_rules(min_severity=Severity.ERROR)
        assert errors
        assert all(r.severity == Severity.ERROR for r in errors)


class TestSeverity:
    def test_ordering(self):
        assert Severity.ERROR > Severity.WARN > Severity.INFO

    def test_labels_round_trip(self):
        for sev in Severity:
            assert Severity.from_label(sev.label) is sev

    def test_unknown_label(self):
        with pytest.raises(ValueError, match="fatal"):
            Severity.from_label("fatal")


class TestReport:
    def _broken(self):
        ckt = clean_rc()
        ckt.add(Resistor("rdang", "out", "hang", 1e3))
        ckt.add(Resistor("rs", "out", "out", 1.0))
        return lint_circuit(ckt)

    def test_findings_sorted_most_severe_first(self):
        report = self._broken()
        sevs = [f.severity for f in report.findings]
        assert sevs == sorted(sevs, reverse=True)

    def test_queries(self):
        report = self._broken()
        assert not report.ok
        assert report.worst() == Severity.ERROR
        assert report.counts()["error"] == len(report.errors)
        assert len(report.at_least(Severity.WARN)) == (
            len(report.errors) + len(report.at_severity(Severity.WARN)))

    def test_format_text(self):
        text = self._broken().format_text()
        assert "SP-FLOAT-001" in text
        assert "result: FAIL" in text
        clean = lint_circuit(clean_rc()).format_text()
        assert "result: CLEAN" in clean

    def test_json_round_trip(self):
        report = self._broken()
        again = LintReport.from_json(report.to_json())
        assert again == report
        assert isinstance(again.findings[0].severity, Severity)

    def test_from_json_rejects_foreign_payload(self):
        with pytest.raises(ValueError):
            LintReport.from_json('{"x": 1}')


class TestEntryPoints:
    def test_lint_netlist(self):
        report = lint_netlist(
            "t\nv1 in 0 dc 1\nr1 in out 1k\nr2 out 0 1k\n")
        assert report.ok
        assert report.circuit == "t"

    def test_lint_subckt_ports_external(self):
        inner = Circuit("div")
        inner.add(Resistor("r1", "in", "mid", 1.0))
        inner.add(Resistor("r2", "mid", "out", 1.0))
        sub = Subckt(name="div", ports=["in", "out"], circuit=inner)
        report = lint_subckt(sub)
        # No ground inside, ports dangle at degree 1: all excused
        # because the ports are externally driven.
        assert report.ok

    def test_preflight_raises_with_rule_and_nodes(self):
        ckt = clean_rc()
        ckt.add(Resistor("rdang", "out", "hang", 1e3))
        with pytest.raises(NetlistLintError, match="SP-FLOAT-001") as exc:
            preflight_check(ckt)
        assert "hang" in str(exc.value)
        assert exc.value.report is not None
        assert not exc.value.report.ok

    def test_preflight_ignores_warnings(self):
        ckt = clean_rc()
        ckt.add(Resistor("rs", "out", "out", 1.0))  # warn-level short
        report = preflight_check(ckt)
        assert report.ok

    def test_min_severity_filter(self):
        ckt = clean_rc()
        ckt.add(Resistor("rs", "out", "out", 1.0))
        report = lint_circuit(ckt, min_severity=Severity.ERROR)
        assert not fired(report, "SP-SHORT-001")


class TestBuiltinCircuitsCertified:
    @pytest.mark.parametrize("name", sorted(builtin_circuits()))
    def test_builtin_lints_clean(self, name):
        built = builtin_circuits()[name]()
        if isinstance(built, Subckt):
            report = lint_subckt(built)
        else:
            report = lint_circuit(built)
        assert report.errors == (), report.format_text()
        assert report.at_severity(Severity.WARN) == (), \
            report.format_text()
