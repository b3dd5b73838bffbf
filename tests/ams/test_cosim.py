"""Spice co-simulation block inside the AMS kernel."""

import math

import pytest

from repro.ams.block import CallbackBlock
from repro.ams.cosim import SpiceBlock
from repro.ams.kernel import Simulator
from repro.spice.devices.passives import Capacitor, Resistor
from repro.spice.devices.sources import VoltageSource
from repro.spice.netlist import Circuit


def rc_circuit(r=1e3, c=1e-12) -> Circuit:
    ckt = Circuit("rc")
    ckt.add(VoltageSource("vin", "in", "0", dc=0.0),
            Resistor("r1", "in", "out", r),
            Capacitor("c1", "out", "0", c))
    return ckt


class TestSpiceBlock:
    def test_tracks_input_quantity(self):
        sim = Simulator(dt=1e-11)
        drive = sim.quantity("drive", init=0.0)
        out = sim.quantity("out")
        sim.add_block(CallbackBlock("src", lambda: 1.0,
                                    inputs=[], outputs=[drive]))
        sim.add_block(SpiceBlock(
            "rc", rc_circuit(), sim.dt,
            inputs={"vin": lambda: drive.value},
            outputs={out: lambda st: st.v("out")}))
        sim.run(10e-9)  # 10 tau
        assert out.value == pytest.approx(1.0, abs=1e-3)

    def test_substeps(self):
        sim = Simulator(dt=4e-11)
        drive = sim.quantity("drive", init=1.0)
        out = sim.quantity("out")
        block = SpiceBlock(
            "rc", rc_circuit(), sim.dt,
            inputs={"vin": lambda: drive.value},
            outputs={out: lambda st: st.v("out")},
            substeps=4)
        sim.add_block(block)
        sim.run(8e-9)
        assert block.stepper.steps_taken == sim.steps * 4
        assert out.value == pytest.approx(1.0, abs=1e-3)

    def test_initial_dc_solution_exported(self):
        sim = Simulator(dt=1e-11)
        drive = sim.quantity("drive", init=0.7)
        out = sim.quantity("out")
        SpiceBlock("rc", rc_circuit(), sim.dt,
                   inputs={"vin": lambda: drive.value},
                   outputs={out: lambda st: st.v("out")})
        # DC operating point with vin = 0.7 -> out = 0.7 already at t=0
        assert out.value == pytest.approx(0.7, abs=1e-6)

    def test_substep_validation(self):
        sim = Simulator(dt=1e-11)
        out = sim.quantity("out")
        with pytest.raises(ValueError):
            SpiceBlock("rc", rc_circuit(), sim.dt,
                       inputs={"vin": lambda: 0.0},
                       outputs={out: lambda st: st.v("out")},
                       substeps=0)

    def test_dynamic_input_follows_sine(self):
        sim = Simulator(dt=1e-11)
        drive = sim.quantity("drive", init=0.0)
        out = sim.quantity("out")
        freq = 1e8  # well below RC pole at 159 MHz -> passes with
        # moderate attenuation

        sim.add_block(CallbackBlock(
            "src", lambda: math.sin(2 * math.pi * freq * sim.t),
            inputs=[], outputs=[drive]))
        sim.add_block(SpiceBlock(
            "rc", rc_circuit(), sim.dt,
            inputs={"vin": lambda: drive.value},
            outputs={out: lambda st: st.v("out")}))
        sim.run(30e-9)
        expected_mag = 1.0 / math.sqrt(1 + (freq / 1.59e8) ** 2)
        # after settling, the output swings with roughly that amplitude
        peak = 0.0
        for _ in range(1000):
            sim.run_steps(1)
            peak = max(peak, abs(out.value))
        assert peak == pytest.approx(expected_mag, rel=0.1)


class TestPreflight:
    """The static lint gate in front of the embedded circuit engine."""

    def _broken_rc(self) -> Circuit:
        # 'out' reaches ground only through capacitors: gmin leakage
        # can still solve this numerically, but it is a netlist bug.
        ckt = Circuit("rc broken")
        ckt.add(VoltageSource("vin", "in", "0", dc=0.0),
                Capacitor("cs", "in", "out", 1e-12),
                Capacitor("c1", "out", "0", 1e-12))
        return ckt

    def _make_block(self, circuit, **kwargs):
        sim = Simulator(dt=1e-11)
        out = sim.quantity("out")
        return SpiceBlock("uut", circuit, sim.dt,
                          inputs={"vin": lambda: 0.0},
                          outputs={out: lambda st: st.v("out")},
                          **kwargs)

    def test_rejects_broken_circuit_naming_rule_and_nodes(self):
        from repro.spice.errors import NetlistLintError

        with pytest.raises(NetlistLintError, match="SP-DCPATH-001") as exc:
            self._make_block(self._broken_rc())
        assert "out" in str(exc.value)
        assert exc.value.report is not None

    def test_rejects_before_any_mna_assembly(self):
        # A current-source cutset would otherwise surface much later as
        # an opaque singular-matrix error inside the Newton loop.
        from repro.spice.devices.sources import CurrentSource
        from repro.spice.errors import NetlistLintError

        ckt = rc_circuit()
        ckt.add(CurrentSource("i1", "out", "iso", dc=1e-3),
                Capacitor("ciso", "iso", "0", 1e-12))
        with pytest.raises(NetlistLintError, match="SP-"):
            self._make_block(ckt)

    def test_opt_out_still_simulates(self):
        # preflight=False: the gmin-leakage path solves the degenerate
        # netlist, as before the gate existed.
        block = self._make_block(self._broken_rc(), preflight=False)
        for _ in range(10):
            block.step(0.0, 1e-11)
        assert math.isfinite(block.v("out"))

    def test_clean_circuit_unaffected(self):
        block = self._make_block(rc_circuit())
        assert block.stepper.steps_taken == 0
