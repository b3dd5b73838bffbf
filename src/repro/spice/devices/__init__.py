"""Device descriptions for the circuit simulator.

Devices are lightweight declarative records: :class:`~.passives.Resistor`
and :class:`~.passives.Capacitor`, the independent
:class:`~.sources.VoltageSource` and :class:`~.sources.CurrentSource`
(DC, AC and an optional :class:`~.sources.Pulse`), and the level-1
:class:`~.mosfet.Mosfet` with its :class:`~.mosfet.MosModel` card.  All
numerical work happens in :mod:`repro.spice.mna`, which compiles a
:class:`repro.spice.netlist.Circuit` into the vectorized
:class:`~.mosfet.MosGroup`.
"""
