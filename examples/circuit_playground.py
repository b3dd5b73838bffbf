#!/usr/bin/env python3
"""Drive the circuit simulator directly: netlists, OP, AC, transient.

Shows the ELDO-substitute engine as a standalone tool: a textual Spice
netlist of a two-stage amplifier is parsed, biased, swept and
transient-simulated; then the paper's I&D testbench is probed.

Run:  python examples/circuit_playground.py

``REPRO_SMOKE=1`` shortens the sweeps so CI can smoke-test the script
in seconds.
"""

import os

import numpy as np

from repro.circuits.integrate_dump import build_id_testbench
from repro.core.characterize import ID_OP_GUESS
from repro.spice.analysis.ac import ac_analysis, logspace_freqs
from repro.spice.analysis.op import operating_point
from repro.spice.analysis.tran import transient
from repro.spice.library import GENERIC_018_CARDS
from repro.spice.parser import parse_netlist

AMP_NETLIST = """common-source stage + follower demo
{cards}
.param rload=10k
vdd vdd 0 1.8
vin in 0 dc 0.9 ac 1
r1 vdd d1 {{rload}}
m1 d1 in 0 0 nch w=2u l=0.5u
m2 vdd d1 out 0 nch w=8u l=0.5u
r2 out 0 {{rload/2}}
c1 out 0 0.5p
""".format(cards=GENERIC_018_CARDS)


def main() -> None:
    ckt = parse_netlist(AMP_NETLIST)
    op = operating_point(ckt)
    print("Two-stage amplifier bias:")
    for name, info in op.mos_info().items():
        region = {0: "cutoff", 1: "triode", 2: "saturation"}[info["region"]]
        print(f"  {name}: id={info['ids'] * 1e6:7.1f} uA  "
              f"gm={info['gm'] * 1e3:6.3f} mS  {region}")

    smoke = os.environ.get("REPRO_SMOKE") == "1"
    freqs = logspace_freqs(1e3, 10e9, 3 if smoke else 6)
    ac = ac_analysis(ckt, freqs, op=op)
    gain = ac.mag_db("out")
    print(f"  midband gain: {gain.max():.1f} dB; "
          f"gain at 1 GHz: {np.interp(9.0, np.log10(freqs), gain):.1f} dB")

    # The paper's I&D testbench, step response through the Spice engine.
    t_stop = 10e-9 if smoke else 40e-9
    tb = build_id_testbench(diff_dc=0.03)
    res = transient(tb, t_stop, 0.2e-9, probes=["out_intp", "out_intm"],
                    initial_guess=ID_OP_GUESS)
    vd = res.vdiff("out_intp", "out_intm")
    print(f"\nI&D integrating 30 mV for {t_stop * 1e9:.0f} ns -> "
          f"{vd[-1] * 1e3:.1f} mV "
          f"(slope {vd[-1] / t_stop / 0.03 / 1e6:.1f} V/V/us)")


if __name__ == "__main__":
    main()
