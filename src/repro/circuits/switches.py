"""Integration switches of the I&D unit.

Per the paper: "a couple of transmission gates which connect the OTA
outputs to the integrating capacitor and ... an additional transmission
gate whose aim is to reset the accumulated charge prior to restart
integration".

Two digital controls drive the block:

* ``controlp`` high  -> integrate (series gates closed),
* ``controlm`` high  -> dump (reset gate shorts the capacitor),
* both low           -> hold (all gates open; the ADC samples here).

Each control's complement is generated by a local CMOS inverter (2 x 2
transistors), so the block contributes 10 transistors in total.
"""

from __future__ import annotations

from repro.circuits.sizing import IntegrateDumpDesign, MosSize
from repro.spice.devices.mosfet import Mosfet
from repro.spice.netlist import Circuit


def _mos(name: str, d: str, g: str, s: str, b: str, size: MosSize) -> Mosfet:
    return Mosfet(name, d, g, s, b, size.model, w=size.w, l=size.l)


def add_inverter(ckt: Circuit, name: str, inp: str, out: str,
                 vdd: str, gnd: str,
                 n_size: MosSize, p_size: MosSize) -> None:
    """Static CMOS inverter (used to derive switch complements)."""
    ckt.add(
        _mos(f"{name}n", out, inp, gnd, gnd, n_size),
        _mos(f"{name}p", out, inp, vdd, vdd, p_size),
    )


def add_transmission_gate(ckt: Circuit, name: str, a: str, b: str,
                          ctl: str, ctl_bar: str, vdd: str, gnd: str,
                          n_size: MosSize, p_size: MosSize) -> None:
    """NMOS+PMOS transmission gate between *a* and *b*, closed when
    *ctl* is high (and *ctl_bar* low)."""
    ckt.add(
        _mos(f"{name}n", a, ctl, b, gnd, n_size),
        _mos(f"{name}p", a, ctl_bar, b, vdd, p_size),
    )


def add_integration_switches(ckt: Circuit, design: IntegrateDumpDesign, *,
                             outp: str, outm: str,
                             out_intp: str, out_intm: str,
                             controlp: str, controlm: str,
                             vdd: str, gnd: str) -> None:
    """Add the 3 transmission gates + 2 inverters of the switch block."""
    add_inverter(ckt, "minv1", controlp, "cpb", vdd, gnd,
                 design.inv_n, design.inv_p)
    add_inverter(ckt, "minv2", controlm, "cmb", vdd, gnd,
                 design.inv_n, design.inv_p)
    # Series gates: OTA outputs -> integrating capacitor.
    add_transmission_gate(ckt, "mtg1", outp, out_intp, controlp, "cpb",
                          vdd, gnd, design.tg_n, design.tg_p)
    add_transmission_gate(ckt, "mtg2", outm, out_intm, controlp, "cpb",
                          vdd, gnd, design.tg_n, design.tg_p)
    # Reset gate across the capacitor.
    add_transmission_gate(ckt, "mtg3", out_intp, out_intm, controlm,
                          "cmb", vdd, gnd, design.tg_n, design.tg_p)
