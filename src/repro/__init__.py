"""repro: reproduction of the DATE'07 AMS top-down UWB SoC methodology.

Subpackages
-----------

``repro.core``
    The paper's contribution: the four-phase top-down refinement flow
    (Phase-IV auto-characterization, metric comparison, scenario
    sweeps).
``repro.ams``
    A VHDL-AMS-like mixed-signal simulation kernel (event-driven digital
    + fixed-step analog, hierarchical entities, Spice co-simulation).
``repro.spice``
    An MNA circuit simulator (the ELDO substitute): OP / DC / AC /
    transient with a level-1 MOSFET model and a Spice netlist parser.
``repro.circuits``
    Transistor-level designs from the paper, chiefly the 31-transistor
    current-mode Integrate & Dump of figure 3.
``repro.uwb``
    The UWB energy-detection transceiver substrate: pulses, 2-PPM
    packets, IEEE 802.15.4a CM1 channel, front end, AGC, synchronizer,
    demodulator, two-way ranging, and a vectorized BER engine.
``repro.link``
    The one front door: declarative ``LinkSpec`` + the ``ops``
    functions (vectorized golden-model BER, ranging, AMS-kernel
    testbench) with integrator selection by name from the closed
    ``INTEGRATORS`` table.
``repro.experiments``
    Harnesses that regenerate every table and figure of the paper,
    and the ``EXPERIMENTS`` table ``python -m repro run`` reads.
"""

__version__ = "1.2.0"
