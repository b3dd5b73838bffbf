"""The 31-transistor Integrate & Dump circuit (paper figure 3)."""

import dataclasses

import numpy as np
import pytest

from repro.circuits.integrate_dump import (
    ID_INTERFACE_PORTS,
    build_id_testbench,
    build_integrate_dump,
    count_transistors,
    integrate_hold_dump_waves,
)
from repro.circuits.sizing import default_design
from repro.core.characterize import ID_OP_GUESS
from repro.spice.analysis.op import operating_point
from repro.spice.analysis.tran import transient
from repro.spice.devices.mosfet import Mosfet


def c_int(sub):
    """The integrating capacitor of an Integrate & Dump subcircuit."""
    return next(dev for dev in sub.circuit.devices if dev.name == "c_int")


class TestStructure:
    def test_transistor_count_matches_paper(self):
        """Paper: 'The ELDO integrator, which includes 31 transistors'."""
        sub = build_integrate_dump()
        assert count_transistors(sub.circuit) == 31

    def test_interface_ports(self):
        """The VHDL-AMS component declaration of section 5 (ground is
        collapsed onto the global reference by the netlist layer)."""
        sub = build_integrate_dump()
        expected = tuple("0" if p == "gnd" else p
                         for p in ID_INTERFACE_PORTS)
        assert tuple(sub.ports) == expected

    def test_fully_differential(self):
        """Every p-side device has an m-side twin."""
        sub = build_integrate_dump()
        names = {d.name for d in sub.circuit.devices_of(Mosfet)}
        for name in list(names):
            if name.endswith("p") and name[:-1] + "m" in names:
                continue
            if name.endswith("m") and name[:-1] + "p" in names:
                continue
            # CMFB error amp / sense devices are shared - allowed set:
            assert name in {"ms1", "ms2", "ms3", "mc1", "mc2", "mc3",
                            "mc4", "minv1n", "minv1p", "minv2n",
                            "minv2p", "mtg1n", "mtg1p", "mtg2n",
                            "mtg2p", "mtg3n", "mtg3p"}, name

    def test_integrating_cap_value(self):
        sub = build_integrate_dump()
        cap = c_int(sub)
        assert cap.value == pytest.approx(1e-12)

    def test_custom_cap(self):
        design = dataclasses.replace(default_design(), c_int=2e-12)
        sub = build_integrate_dump(design)
        assert c_int(sub).value == pytest.approx(2e-12)


class TestOperatingPoint:
    def test_all_core_devices_saturated(self):
        tb = build_id_testbench()
        op = operating_point(tb, initial_guess=ID_OP_GUESS)
        info = op.mos_info()
        for name in ["x1.m1p", "x1.m2p", "x1.m4p", "x1.m5p", "x1.m6p",
                     "x1.m7p", "x1.m8p"]:
            assert info[name]["region"] == 2, f"{name} not saturated"

    def test_cmfb_regulates_output_cm(self, id_design):
        tb = build_id_testbench(id_design)
        op = operating_point(tb, initial_guess=ID_OP_GUESS)
        cm = 0.5 * (op.v("x1.outp") + op.v("x1.outm"))
        assert cm == pytest.approx(id_design.output_cm, abs=0.05)

    def test_balanced_outputs_at_zero_input(self):
        tb = build_id_testbench()
        op = operating_point(tb, initial_guess=ID_OP_GUESS)
        assert op.vdiff("out_intp", "out_intm") == pytest.approx(
            0.0, abs=1e-3)

    def test_modes_have_valid_op(self):
        for mode in ("integrate", "hold", "dump"):
            tb = build_id_testbench(mode=mode)
            op = operating_point(tb, initial_guess=ID_OP_GUESS)
            assert abs(op.v("x1.vcmfb")) < 1.8

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            build_id_testbench(mode="resetting")


class TestAcResponse:
    """Figure-4 targets (see also experiments/fig4)."""

    def test_dc_gain_near_21db(self, id_characterization):
        fit, _freqs, _mag = id_characterization
        assert 19.0 < fit.gain_db < 23.5

    def test_pole_positions(self, id_characterization):
        fit, _freqs, _mag = id_characterization
        assert 0.4e6 < fit.fp1_hz < 2.0e6     # paper: 0.886 MHz
        assert 3.0e9 < fit.fp2_hz < 15.0e9    # paper: 5.895 GHz

    def test_ideal_integrator_band(self, id_characterization):
        """-20 dB/dec between 10 MHz and 1 GHz."""
        _fit, freqs, mag = id_characterization
        logf = np.log10(freqs)
        m10m = np.interp(7.0, logf, mag)
        m1g = np.interp(9.0, logf, mag)
        slope = (m1g - m10m) / 2.0
        assert slope == pytest.approx(-20.0, abs=1.0)

    def test_model_overlap(self, id_characterization):
        """The extracted two-pole model overlaps the circuit AC curve
        (paper: 'perfectly overlaps')."""
        fit, freqs, mag = id_characterization
        assert fit.rms_error_db < 0.5


class TestTransient:
    def test_integrate_hold_dump_cycle(self):
        waves = integrate_hold_dump_waves(10e-9, 40e-9, 20e-9, 15e-9)
        tb = build_id_testbench(diff_dc=0.05, control_waves=waves)
        res = transient(tb, 100e-9, 0.2e-9,
                        probes=["out_intp", "out_intm"],
                        initial_guess=ID_OP_GUESS)
        vd = res.vdiff("out_intp", "out_intm")
        t = res.t
        ramp_mid = vd[np.searchsorted(t, 30e-9)]
        held = vd[np.searchsorted(t, 65e-9)]
        after_dump = vd[-1]
        assert ramp_mid > 0.02
        assert held > ramp_mid
        assert abs(after_dump) < 5e-3

    def test_hold_leakage_small(self):
        waves = integrate_hold_dump_waves(10e-9, 40e-9, 30e-9, 10e-9)
        tb = build_id_testbench(diff_dc=0.05, control_waves=waves)
        res = transient(tb, 85e-9, 0.2e-9,
                        probes=["out_intp", "out_intm"],
                        initial_guess=ID_OP_GUESS)
        vd = res.vdiff("out_intp", "out_intm")
        t = res.t
        start_hold = vd[np.searchsorted(t, 52e-9)]
        end_hold = vd[np.searchsorted(t, 78e-9)]
        assert abs(end_hold - start_hold) < 0.05 * abs(start_hold) + 2e-3

    def test_polarity(self):
        waves = integrate_hold_dump_waves(10e-9, 30e-9, 10e-9, 10e-9)
        tb = build_id_testbench(diff_dc=-0.05, control_waves=waves)
        res = transient(tb, 45e-9, 0.2e-9,
                        probes=["out_intp", "out_intm"],
                        initial_guess=ID_OP_GUESS)
        assert res.vdiff("out_intp", "out_intm")[-1] < -0.02


class TestLinearRange:
    def test_compression_beyond_linear_range(self, id_design):
        """The DC transfer compresses for large differential inputs
        (paper: linear input range around 100 mV)."""
        from repro.core.characterize import extract_nonlinearity

        vin, f_of_vin, gain0 = extract_nonlinearity(id_design,
                                                    v_max=0.25, points=21)
        assert gain0 > 5.0
        # unit slope at origin
        mid = len(vin) // 2
        slope0 = ((f_of_vin[mid + 1] - f_of_vin[mid - 1])
                  / (vin[mid + 1] - vin[mid - 1]))
        assert slope0 == pytest.approx(1.0, abs=0.15)
        # strong compression at 0.25 V
        edge_slope = ((f_of_vin[-1] - f_of_vin[-2])
                      / (vin[-1] - vin[-2]))
        assert edge_slope < 0.5

    def test_output_swing(self, id_design):
        """Differential output reaches +/-1.2 V and beyond (paper:
        1.6 V swing)."""
        from repro.core.characterize import extract_nonlinearity

        vin, f_of_vin, gain0 = extract_nonlinearity(id_design,
                                                    v_max=0.3, points=13)
        vout = f_of_vin * gain0
        assert vout[-1] > 1.2
        assert vout[0] < -1.2
