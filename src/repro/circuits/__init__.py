"""Transistor-level designs from the paper.

The centerpiece is the current-mode Integrate & Dump unit of figure 3
(:mod:`repro.circuits.integrate_dump`), assembled from:

* the transconductance amplifier (:mod:`repro.circuits.ota`) with its
  source-follower input stage and ratio-2 mirror output stage,
* the common-mode feedback network (:mod:`repro.circuits.cmfb`),
* the integration/dump transmission-gate switches
  (:mod:`repro.circuits.switches`).

All blocks are parameterized by :class:`repro.circuits.sizing.IntegrateDumpDesign`
so tests and calibration sweeps can explore the sizing space.
"""

from repro.circuits.integrate_dump import (
    build_id_testbench,
    build_integrate_dump,
)


def builtin_circuits():
    """Named factories of every shipped netlist, for ``python -m repro
    lint <name>`` and the circuit-QA certification tests.

    Returns:
        ``{name: factory}`` where each zero-argument factory yields a
        :class:`~repro.spice.netlist.Circuit` (testbenches) or a
        :class:`~repro.spice.netlist.Subckt` (linted stand-alone with
        its ports treated as externally driven).
    """
    return {
        "int_spice": build_integrate_dump,
        "id_testbench": build_id_testbench,
        "id_testbench_hold": lambda: build_id_testbench(mode="hold"),
        "id_testbench_dump": lambda: build_id_testbench(mode="dump"),
        "id_testbench_ac": lambda: build_id_testbench(ac=True),
    }
