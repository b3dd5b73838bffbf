"""The current-mode transconductance amplifier of the I&D unit.

Topology (per the paper's description): each input drives an NMOS source
follower whose current flows through a diode-connected mirror master; the
current is then mirrored and amplified (ratio ~2) into the output stage.
The pull-up path goes through an NMOS slave into a PMOS diode/slave pair;
the pull-down path is the cross-coupled NMOS slave from the opposite
side, so each output is pushed by its own side and pulled by the other -
a fully differential output current proportional to the differential
input voltage.

The composite transconductance is ``gm1*gm2/(gm1+gm2) ~ gm2`` (the diode
dominates because the follower aspect ratio of ~20 makes ``gm1`` large),
and the output resistance is set by the un-cascoded mirror devices -
exactly the mechanism the paper invokes for the 21 dB DC gain and the
sub-MHz dominant pole with the 1 pF load.
"""

from __future__ import annotations

from repro.circuits.sizing import IntegrateDumpDesign, MosSize
from repro.spice.devices import Mosfet
from repro.spice.netlist import Circuit


def _mos(name: str, d: str, g: str, s: str, b: str, size: MosSize) -> Mosfet:
    return Mosfet(name, d, g, s, b, size.model, w=size.w, l=size.l)


def add_ota(ckt: Circuit, design: IntegrateDumpDesign, *,
            inp: str, inm: str, outp: str, outm: str,
            vdd: str, gnd: str) -> None:
    """Add the 12-transistor transconductance amplifier to *ckt*.

    Args:
        inp/inm: differential inputs.
        outp/outm: amplifier output nodes (internal ``Outp``/``Outm`` of
            figure 3; the integration switches attach here).
        vdd/gnd: supply rails.
    """
    ratio = design.mirror_ratio
    margin = design.pulldown_margin
    # Mirror slaves are exact ratioed copies of the diode master so the
    # mirror ratios hold by construction.
    slave_up = design.diode.scaled(ratio)
    slave_down = design.diode.scaled(ratio * margin)

    for side, inx, out_own, out_other in (
            ("p", inp, outp, outm), ("m", inm, outm, outp)):
        node_a = f"a{side}"
        node_pdio = f"pdio{side}"
        ckt.add(
            # input source follower (aspect ratio ~20)
            _mos(f"m1{side}", vdd, inx, node_a, gnd, design.follower),
            # diode-connected mirror master: sets the composite gm
            _mos(f"m2{side}", node_a, node_a, gnd, gnd, design.diode),
            # ratio-2 NMOS slave feeding the PMOS pull-up mirror
            _mos(f"m4{side}", node_pdio, node_a, gnd, gnd, slave_up),
            # cross-coupled ratio-2(+margin) pull-down on the other output
            _mos(f"m5{side}", out_other, node_a, gnd, gnd, slave_down),
            # PMOS diode + slave push the mirrored current into own output
            _mos(f"m6{side}", node_pdio, node_pdio, vdd, vdd,
                 design.mirror_up_p),
            _mos(f"m7{side}", out_own, node_pdio, vdd, vdd,
                 design.mirror_up_p),
        )
