"""Common-mode feedback network of the I&D unit.

The paper calls the CMFB "fundamental because the output nodes of the
transconductance amplifier have a high impedance ... causing the output
to float", and mentions "two auto-biasing networks" providing the
references.  Our transistor-level realization:

* two matched NMOS source followers sense the output common mode into a
  shared resistor tail (node ``s``),
* a third, identical dummy follower level-shifts the reference produced
  by a resistive divider the same way (auto-bias network 1),
* a differential pair with PMOS mirror load compares the two shifted
  levels (its tail current is set by a degeneration resistor - auto-bias
  network 2) and drives ``vcmfb``,
* ``vcmfb`` gates two PMOS pull-ups that trim the output-stage current
  balance; a compensation capacitor keeps the CM loop crossover well
  below the integrator's dominant pole.
"""

from __future__ import annotations

from repro.circuits.sizing import IntegrateDumpDesign, MosSize
from repro.spice.devices.mosfet import Mosfet
from repro.spice.devices.passives import Capacitor, Resistor
from repro.spice.netlist import Circuit


def _mos(name: str, d: str, g: str, s: str, b: str, size: MosSize) -> Mosfet:
    return Mosfet(name, d, g, s, b, size.model, w=size.w, l=size.l)


def add_cmfb(ckt: Circuit, design: IntegrateDumpDesign, *,
             outp: str, outm: str, vdd: str, gnd: str) -> None:
    """Add the 9-transistor CMFB network regulating *outp*/*outm*.

    Nodes created: ``s`` (sensed CM), ``sref`` (shifted reference),
    ``vcmref`` (divider), ``vcmfb`` (control), ``x1`` (mirror diode),
    ``tail``.
    """

    # Output CM sensing: follower pair into a shared tail resistor.
    ckt.add(
        _mos("ms1", vdd, outp, "s", gnd, design.cmfb_sense),
        _mos("ms2", vdd, outm, "s", gnd, design.cmfb_sense),
        Resistor("rs", "s", gnd, design.cmfb_sense_res),
        # Matched dummy follower shifts the reference identically; it
        # carries half the sense current, hence the doubled resistor.
        _mos("ms3", vdd, "vcmref", "sref", gnd, design.cmfb_sense),
        Resistor("rsref", "sref", gnd, 2.0 * design.cmfb_sense_res),
    )

    # Reference divider (vcmref = output_cm by ratio).
    r_total = 400e3
    r_low = r_total * design.output_cm / design.vdd
    ckt.add(
        Resistor("rd1", vdd, "vcmref", r_total - r_low),
        Resistor("rd2", "vcmref", gnd, r_low),
    )

    # Error amplifier: resistor-tailed differential pair, PMOS mirror
    # load, compensated output driving the pull-up gates.
    ckt.add(
        _mos("mc1", "x1", "s", "tail", gnd, design.cmfb_pair),
        _mos("mc2", "vcmfb", "sref", "tail", gnd, design.cmfb_pair),
        Resistor("rt", "tail", gnd, design.cmfb_tail_res),
        _mos("mc3", "x1", "x1", vdd, vdd, design.cmfb_load),
        _mos("mc4", "vcmfb", "x1", vdd, vdd, design.cmfb_load),
        Capacitor("cc", "vcmfb", gnd, design.cmfb_comp_cap),
        # Controlled pull-ups closing the loop on the amplifier outputs.
        _mos("m8p", outp, "vcmfb", vdd, vdd, design.cmfb_pullup),
        _mos("m8m", outm, "vcmfb", vdd, vdd, design.cmfb_pullup),
    )
