"""Spice-class analog circuit simulator (the repo's ELDO substitute).

This package implements a small Modified-Nodal-Analysis (MNA) circuit
simulator:

* a circuit/netlist data model (:mod:`repro.spice.netlist`) with subcircuit
  flattening,
* a Spice-format text parser (:mod:`repro.spice.parser`),
* the device kinds the paper's circuits use (:mod:`repro.spice.devices`):
  resistors, capacitors, independent V/I sources (DC, AC and ``PULSE``)
  and a level-1 MOSFET with body effect, channel-length modulation and
  a Meyer-style charge model,
* analyses (:mod:`repro.spice.analysis`): operating point, AC small-signal
  and transient, plus a resumable
  :class:`~repro.spice.analysis.tran.TransientStepper` used for
  mixed-signal co-simulation,
* a generic 0.18 um CMOS model library (:mod:`repro.spice.library`).

Each name is imported from the module that defines it; the package
re-exports nothing.
"""
