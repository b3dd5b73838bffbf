"""Mixed-signal simulation kernel (the repo's VHDL-AMS/ADMS substitute).

The kernel provides the two semantics the paper's methodology relies on:

* **digital**: event-driven :class:`~repro.ams.signal.Signal` updates
  with delta cycles, and callbacks the simulator schedules once
  (:meth:`~repro.ams.kernel.Simulator.schedule`) or periodically
  (:meth:`~repro.ams.kernel.Simulator.every`) (VHDL side),
* **analog**: fixed-step :class:`~repro.ams.quantity.Quantity`
  evaluation through an ordered chain of
  :class:`~repro.ams.block.AnalogBlock` objects, each integrating its own
  differential equations with the trapezoidal rule (VHDL-AMS
  simultaneous statements), including Spice co-simulation blocks
  (:mod:`repro.ams.cosim`) that embed a transistor netlist in the system
  testbench - the ADMS/Eldo substitute-and-play mechanism.

Both sides share one clock: every analog step advances time by ``dt``
(the paper uses a fixed 0.05 ns step) and then drains the digital event
queue up to the new time.
"""
