"""Device descriptions for the circuit simulator.

Devices are lightweight declarative records; all numerical work happens in
:mod:`repro.spice.mna`, which compiles a :class:`repro.spice.netlist.Circuit`
into vectorized device groups.
"""
