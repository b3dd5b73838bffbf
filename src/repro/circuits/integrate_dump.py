"""The complete Integrate & Dump unit (paper figure 3) and testbenches.

``build_integrate_dump`` assembles the transconductance amplifier, the
CMFB network, the integration switches and the 1 pF integrating
capacitor into a :class:`~repro.spice.netlist.Subckt` whose interface
matches the paper's component declaration::

    component int_spice
      port ( terminal Inp, Inm: electrical;
             terminal Controlp, Controlm, Vdd, Gnd,
                      Out_intp, Out_intm: electrical);

(The paper counts 31 transistors for the ELDO integrator; so does this
netlist - checked by a regression test.)
"""

from __future__ import annotations

from repro.circuits.cmfb import add_cmfb
from repro.circuits.ota import add_ota
from repro.circuits.sizing import IntegrateDumpDesign, default_design
from repro.circuits.switches import add_integration_switches
from repro.spice.devices.mosfet import Mosfet
from repro.spice.devices.passives import Capacitor
from repro.spice.devices.sources import Pulse, VoltageSource
from repro.spice.library import generic_018
from repro.spice.netlist import Circuit, Subckt

#: Interface terminals, in the order of the paper's VHDL-AMS component.
ID_INTERFACE_PORTS = ("inp", "inm", "controlp", "controlm", "vdd", "gnd",
                      "out_intp", "out_intm")


def build_integrate_dump(design: IntegrateDumpDesign | None = None
                         ) -> Subckt:
    """Build the I&D subcircuit ``int_spice`` (the paper's name).

    Args:
        design: sizing; :func:`~repro.circuits.sizing.default_design`
            if omitted.
    """
    design = design or default_design()
    inner = Circuit("subckt int_spice", models=generic_018().values())
    add_ota(inner, design, inp="inp", inm="inm", outp="outp", outm="outm",
            vdd="vdd", gnd="gnd")
    add_cmfb(inner, design, outp="outp", outm="outm", vdd="vdd", gnd="gnd")
    add_integration_switches(
        inner, design, outp="outp", outm="outm",
        out_intp="out_intp", out_intm="out_intm",
        controlp="controlp", controlm="controlm", vdd="vdd", gnd="gnd")
    inner.add(Capacitor("c_int", "out_intp", "out_intm", design.c_int))
    return Subckt(name="int_spice", ports=ID_INTERFACE_PORTS,
                  circuit=inner)


def count_transistors(circuit: Circuit) -> int:
    """Number of MOSFETs in a (flattened) circuit."""
    return len(circuit.devices_of(Mosfet))


def build_id_testbench(design: IntegrateDumpDesign | None = None, *,
                       mode: str = "integrate",
                       diff_dc: float = 0.0,
                       ac: bool = False,
                       control_waves: tuple | None = None) -> Circuit:
    """System-free testbench around the I&D subckt.

    Sources:
        ``vdd``: supply.
        ``vinp``/``vinm``: inputs at ``design.input_cm`` +/- half the
            differential drive.  With ``ac=True`` they carry +/-0.5 AC
            magnitudes so the differential AC input is exactly 1 (making
            ``vdiff(out_intp, out_intm)`` the transfer function of
            figure 4 directly).
        ``vctlp``/``vctlm``: integration / dump controls.  ``mode``
            presets them: ``"integrate"`` (ctlp high), ``"hold"`` (both
            low), ``"dump"`` (ctlm high); *control_waves* overrides with
            ``(Pulse|None, Pulse|None)`` transient waveforms.

    Args:
        diff_dc: static differential input voltage.
    """
    design = design or default_design()
    ckt = Circuit("id_testbench", models=generic_018().values())
    ckt.add_subckt(build_integrate_dump(design))
    ckt.add(VoltageSource("vdd", "vdd", "0", dc=design.vdd))

    half = diff_dc / 2.0
    ckt.add(VoltageSource("vinp", "inp", "0", dc=design.input_cm + half,
                          ac_mag=0.5 if ac else 0.0, ac_phase=0.0))
    ckt.add(VoltageSource("vinm", "inm", "0", dc=design.input_cm - half,
                          ac_mag=0.5 if ac else 0.0, ac_phase=180.0))

    if control_waves is not None:
        wave_ctlp, wave_ctlm = control_waves
        ckt.add(VoltageSource("vctlp", "controlp", "0",
                              dc=0.0, wave=wave_ctlp))
        ckt.add(VoltageSource("vctlm", "controlm", "0",
                              dc=0.0, wave=wave_ctlm))
    else:
        levels = {"integrate": (design.vdd, 0.0),
                  "hold": (0.0, 0.0),
                  "dump": (0.0, design.vdd)}
        try:
            ctlp, ctlm = levels[mode]
        except KeyError:
            raise ValueError(f"unknown mode {mode!r}; pick one of "
                             f"{sorted(levels)}") from None
        ckt.add(VoltageSource("vctlp", "controlp", "0", dc=ctlp))
        ckt.add(VoltageSource("vctlm", "controlm", "0", dc=ctlm))

    ckt.instantiate("x1", "int_spice",
                    ["inp", "inm", "controlp", "controlm", "vdd", "0",
                     "out_intp", "out_intm"])
    return ckt


def integrate_hold_dump_waves(t_int_start: float, t_int: float,
                              t_hold: float, t_dump: float,
                              vdd: float = 1.8) -> tuple[Pulse, Pulse]:
    """Control waveforms for the figure-5 integrate/hold/dump sequence.

    Returns ``(controlp_wave, controlm_wave)``: controlp is high during
    the integration window, controlm goes high for the dump window after
    the hold; one shot each, with 0.2 ns edges.
    """
    ctlp = Pulse(0.0, vdd, td=t_int_start, tr=0.2e-9, tf=0.2e-9,
                 pw=t_int)
    ctlm = Pulse(0.0, vdd, td=t_int_start + t_int + t_hold, tr=0.2e-9,
                 tf=0.2e-9, pw=t_dump)
    return ctlp, ctlm
