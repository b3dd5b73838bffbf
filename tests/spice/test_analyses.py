"""OP / DC sweep / AC / transient analyses against analytic results."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.circuits.sizing import default_design
from repro.circuits.switches import add_transmission_gate
from repro.spice.analysis.ac import ac_analysis, logspace_freqs
from repro.spice.analysis.op import operating_point
from repro.spice.analysis.tran import TransientStepper, transient
from repro.spice.devices.mosfet import Mosfet
from repro.spice.devices.passives import Capacitor, Resistor
from repro.spice.devices.sources import CurrentSource, Pulse, VoltageSource
from repro.spice.errors import AnalysisError, NetlistError
from repro.spice.library import generic_018
from repro.spice.netlist import Circuit

CARDS = generic_018()


class TestOperatingPoint:
    def test_divider(self):
        ckt = Circuit("div")
        ckt.add(VoltageSource("v1", "in", "0", dc=2.0),
                Resistor("r1", "in", "out", 1e3),
                Resistor("r2", "out", "0", 3e3))
        op = operating_point(ckt)
        assert op.v("out") == pytest.approx(1.5, rel=1e-6)
        assert op.i("v1") == pytest.approx(-0.5e-3, rel=1e-6)
        assert op.vdiff("in", "out") == pytest.approx(0.5, rel=1e-6)

    def test_current_source(self):
        ckt = Circuit("i")
        ckt.add(CurrentSource("i1", "0", "a", dc=1e-3),
                Resistor("r1", "a", "0", 1e3))
        op = operating_point(ckt)
        assert op.v("a") == pytest.approx(1.0, rel=1e-6)

    def test_floating_node_detected(self):
        ckt = Circuit("bad")
        ckt.add(VoltageSource("v1", "in", "0", dc=1.0),
                Capacitor("c1", "in", "float", 1e-12),
                Capacitor("c2", "float", "0", 1e-12),
                Resistor("r1", "in", "0", 1e3))
        # gmin keeps this solvable; the floating node just sits at ~0
        op = operating_point(ckt)
        assert abs(op.v("float")) < 2.0

    def test_switch_states(self):
        """The switches of the paper's I&D are MOS transmission gates:
        closed, a gate passes mid-rail to a 1 MOhm load; open, it
        isolates it."""
        design = default_design()

        def out(closed):
            ckt = Circuit("tg", models=CARDS.values())
            ckt.add(VoltageSource("vdd", "vdd", "0", dc=1.8),
                    VoltageSource("vc", "c", "0", dc=1.8 * closed),
                    VoltageSource("vcb", "cb", "0", dc=1.8 * (not closed)),
                    VoltageSource("v1", "in", "0", dc=0.9),
                    Resistor("rl", "out", "0", 1e6))
            add_transmission_gate(ckt, "mtg", "in", "out", "c", "cb",
                                  "vdd", "0", design.tg_n, design.tg_p)
            return operating_point(ckt).v("out")

        assert out(True) == pytest.approx(0.9, rel=1e-2)
        assert abs(out(False)) < 1e-3

    def test_mos_inverter_transfer(self):
        def out(vin):
            ckt = Circuit("inv", models=CARDS.values())
            ckt.add(VoltageSource("vdd", "vdd", "0", dc=1.8),
                    VoltageSource("vin", "in", "0", dc=vin),
                    Mosfet("mn", "out", "in", "0", "0", "nch",
                           w=1e-6, l=0.18e-6),
                    Mosfet("mp", "out", "in", "vdd", "vdd", "pch",
                           w=2e-6, l=0.18e-6))
            return operating_point(ckt).v("out")

        low_in, high_in = out(0.0), out(1.8)
        assert low_in > 1.7
        assert high_in < 0.1


class TestDcSweep:
    """A DC sweep is one operating point per source value."""

    def test_mos_output_curve_monotone(self):
        def drain_current(vd):
            ckt = Circuit("idvd", models=CARDS.values())
            ckt.add(VoltageSource("vg", "g", "0", dc=1.2),
                    VoltageSource("vd", "d", "0", dc=vd),
                    Mosfet("m1", "d", "g", "0", "0", "nch",
                           w=2e-6, l=1e-6))
            return -operating_point(ckt).i("vd")

        ids = [drain_current(vd) for vd in np.linspace(0.0, 1.8, 19)]
        assert np.all(np.diff(ids) > 0)  # lambda keeps it increasing


class TestAc:
    def test_rc_pole(self):
        ckt = Circuit("rc")
        ckt.add(VoltageSource("v1", "in", "0", ac_mag=1.0),
                Resistor("r1", "in", "out", 1e3),
                Capacitor("c1", "out", "0", 1e-9))
        f_pole = 1.0 / (2 * math.pi * 1e3 * 1e-9)
        ac = ac_analysis(ckt, [f_pole / 100, f_pole, f_pole * 100])
        mags = np.abs(ac.v("out"))
        assert mags[0] == pytest.approx(1.0, abs=1e-3)
        assert mags[1] == pytest.approx(1 / math.sqrt(2), rel=1e-3)
        assert mags[2] == pytest.approx(0.01, rel=0.05)
        phase_deg = np.degrees(np.angle(ac.v("out")))
        assert phase_deg[1] == pytest.approx(-45.0, abs=0.5)

    def test_requires_stimulus(self):
        ckt = Circuit("x")
        ckt.add(VoltageSource("v1", "in", "0", dc=1.0),
                Resistor("r1", "in", "0", 1e3))
        with pytest.raises(AnalysisError):
            ac_analysis(ckt, [1e3])

    def test_cs_amplifier_gain_matches_smallsignal(self):
        ckt = Circuit("cs", models=CARDS.values())
        ckt.add(VoltageSource("vdd", "vdd", "0", dc=1.8),
                VoltageSource("vg", "g", "0", dc=0.9, ac_mag=1.0),
                Resistor("rd", "vdd", "d", 10e3),
                Mosfet("m1", "d", "g", "0", "0", "nch", w=2e-6, l=0.5e-6))
        op = operating_point(ckt)
        info = op.mos_info()["m1"]
        expected = info["gm"] / (1e-4 + info["gds"])
        ac = ac_analysis(ckt, [1e3], op=op)
        assert abs(ac.v("d")[0]) == pytest.approx(expected, rel=1e-3)

    def test_logspace_freqs(self):
        f = logspace_freqs(1e2, 1e6, 10)
        assert f[0] == pytest.approx(1e2)
        assert f[-1] == pytest.approx(1e6)
        assert len(f) == 41
        with pytest.raises(AnalysisError):
            logspace_freqs(1e6, 1e2)


class TestTransient:
    def test_rc_step_charge(self):
        ckt = Circuit("rc")
        ckt.add(VoltageSource("v1", "in", "0",
                              wave=Pulse(0.0, 1.0, tr=1e-12, pw=1.0)),
                Resistor("r1", "in", "out", 1e3),
                Capacitor("c1", "out", "0", 1e-9))
        res = transient(ckt, 5e-6, 5e-9)
        tau = 1e-6
        for k in (1.0, 2.0, 3.0):
            expected = 1.0 - math.exp(-k)
            assert res.at("out", k * tau) == pytest.approx(expected,
                                                           abs=5e-3)

    @pytest.mark.parametrize("method", ["trap", "be"])
    def test_step_refinement_converges(self, method):
        def run(dt):
            ckt = Circuit("rc")
            ckt.add(VoltageSource("v1", "in", "0",
                                  wave=Pulse(0.0, 1.0, tr=1e-12, pw=1.0)),
                    Resistor("r1", "in", "out", 1e3),
                    Capacitor("c1", "out", "0", 1e-9))
            res = transient(ckt, 2e-6, dt, method=method)
            return res.at("out", 1e-6)

        exact = 1.0 - math.exp(-1.0)
        coarse = abs(run(4e-8) - exact)
        fine = abs(run(5e-9) - exact)
        assert fine < coarse
        assert fine < 2e-3

    def test_stepper_source_override(self):
        ckt = Circuit("follow")
        ckt.add(VoltageSource("vin", "in", "0", dc=0.0),
                Resistor("r1", "in", "out", 100.0),
                Capacitor("c1", "out", "0", 1e-12))
        stepper = TransientStepper(ckt, 1e-11)
        stepper.set_source("vin", 1.0)
        stepper.run_until(5e-9)  # many tau
        assert stepper.v("out") == pytest.approx(1.0, abs=1e-3)

    def test_probe_validation(self):
        ckt = Circuit("rc")
        ckt.add(VoltageSource("v1", "in", "0", dc=1.0),
                Resistor("r1", "in", "0", 1e3))
        with pytest.raises(AnalysisError):
            transient(ckt, 1e-9, 1e-10, probes=["nope"])

    def test_current_probe(self):
        ckt = Circuit("r")
        ckt.add(VoltageSource("v1", "in", "0", dc=1.0),
                Resistor("r1", "in", "0", 1e3))
        res = transient(ckt, 1e-9, 1e-10, current_probes=["v1"])
        assert res.i("v1")[-1] == pytest.approx(-1e-3, rel=1e-6)

    def test_dt_validation(self):
        ckt = Circuit("r")
        ckt.add(VoltageSource("v1", "in", "0", dc=1.0),
                Resistor("r1", "in", "0", 1e3))
        with pytest.raises(AnalysisError):
            TransientStepper(ckt, -1e-9)
        with pytest.raises(AnalysisError):
            TransientStepper(ckt, 1e-9, method="rk4")

    @given(r=st.floats(100.0, 1e5), c=st.floats(1e-12, 1e-9))
    @settings(max_examples=10, deadline=None)
    def test_rc_final_value_property(self, r, c):
        """Whatever the RC, the step response settles to the source."""
        ckt = Circuit("rc")
        ckt.add(VoltageSource("v1", "in", "0",
                              wave=Pulse(0.0, 1.0, tr=1e-12, pw=1e3)),
                Resistor("r1", "in", "out", r),
                Capacitor("c1", "out", "0", c))
        tau = r * c
        res = transient(ckt, 8 * tau, tau / 20)
        assert res.v("out")[-1] == pytest.approx(1.0, abs=2e-3)


#: every analysis of a resistive divider, as a function of the circuit.
ANALYSES = {
    "op": operating_point,
    "ac": lambda ckt: ac_analysis(ckt, [1e3, 1e6]),
    "tran": lambda ckt: transient(ckt, 1e-9, 1e-10,
                                  current_probes=("v1",)),
}


@pytest.mark.parametrize("analysis", list(ANALYSES))
def test_unknown_names_raise_a_netlist_error_naming_them(analysis):
    """Every result type answers an unknown node, or a device with no
    branch current, with the same NetlistError naming it, and gives
    zeros for ground whether or not ground was probed."""
    ckt = Circuit("divider")
    ckt.add(VoltageSource("v1", "in", "0", dc=1.0, ac_mag=1.0),
            Resistor("r1", "in", "out", 1e3),
            Resistor("r2", "out", "0", 1e3))
    result = ANALYSES[analysis](ckt)
    assert np.all(np.abs(result.v("OUT")) > 0.0)
    assert np.all(np.abs(result.i("V1")) > 0.0)
    for ground in ("0", "GND"):
        assert np.all(result.v(ground) == 0.0)
        assert np.shape(result.v(ground)) == np.shape(result.v("out"))
    with pytest.raises(NetlistError, match="unknown node 'nope'"):
        result.v("nope")
    with pytest.raises(NetlistError, match="'r1' has no branch current"):
        result.i("r1")
