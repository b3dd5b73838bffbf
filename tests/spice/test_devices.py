"""Device descriptions: validation, renaming, source waveforms."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.spice.devices.diode import Diode
from repro.spice.devices.mosfet import Mosfet, MosModel
from repro.spice.devices.passives import Capacitor, Inductor, Resistor
from repro.spice.devices.sources import (
    CurrentSource,
    Pulse,
    Pwl,
    Sin,
    VoltageSource,
)
from repro.spice.errors import NetlistError


class TestPassives:
    def test_resistor_value_parsing(self):
        r = Resistor("r1", "a", "b", "10k")
        assert r.value == 10e3
        assert r.conductance == pytest.approx(1e-4)

    @pytest.mark.parametrize("bad", [0, -1, "0"])
    def test_resistor_rejects_nonpositive(self, bad):
        with pytest.raises(NetlistError):
            Resistor("r1", "a", "b", bad)

    def test_capacitor_ic(self):
        c = Capacitor("c1", "a", "b", "1p", ic=0.5)
        assert c.value == 1e-12
        assert c.ic == 0.5

    def test_inductor_rejects_nonpositive(self):
        with pytest.raises(NetlistError):
            Inductor("l1", "a", "b", -1e-9)

    def test_renamed_remaps_nodes(self):
        r = Resistor("r1", "a", "b", 100)
        r2 = r.renamed("x1.r1", {"a": "x1.a", "b": "out"})
        assert r2.name == "x1.r1"
        assert r2.nodes == ("x1.a", "out")
        assert r2.value == 100
        # original untouched (immutability)
        assert r.nodes == ("a", "b")


class TestWaveforms:
    def test_pulse_levels(self):
        p = Pulse(0.0, 1.8, td=1e-9, tr=1e-10, tf=1e-10, pw=5e-9)
        assert p.value(0.0) == 0.0
        assert p.value(1e-9 + 5e-11) == pytest.approx(0.9)
        assert p.value(3e-9) == 1.8
        assert p.value(7e-9) == 0.0

    def test_pulse_periodic(self):
        p = Pulse(0.0, 1.0, tr=1e-12, tf=1e-12, pw=4e-9, per=10e-9)
        assert p.value(2e-9) == pytest.approx(p.value(12e-9))

    def test_pulse_validation(self):
        with pytest.raises(NetlistError):
            Pulse(0, 1, per=-1.0)
        with pytest.raises(NetlistError):
            Pulse(0, 1, tr=-1e-9)

    def test_sin_waveform(self):
        s = Sin(vo=0.5, va=1.0, freq=1e6)
        assert s.value(0.0) == pytest.approx(0.5)
        assert s.value(0.25e-6) == pytest.approx(1.5)

    def test_sin_delay(self):
        s = Sin(vo=0.0, va=1.0, freq=1e6, td=1e-6)
        assert s.value(0.5e-6) == 0.0

    def test_sin_rejects_bad_freq(self):
        with pytest.raises(NetlistError):
            Sin(0, 1, freq=0.0)

    def test_pwl_interpolation(self):
        w = Pwl([(0.0, 0.0), (1e-9, 1.0), (2e-9, -1.0)])
        assert w.value(-1.0) == 0.0
        assert w.value(0.5e-9) == pytest.approx(0.5)
        assert w.value(1.5e-9) == pytest.approx(0.0)
        assert w.value(5e-9) == -1.0

    def test_pwl_requires_increasing_times(self):
        with pytest.raises(NetlistError):
            Pwl([(0.0, 0.0), (0.0, 1.0)])

    @given(st.floats(min_value=0.0, max_value=3e-9))
    def test_pwl_bounded_by_breakpoints(self, t):
        w = Pwl([(0.0, 0.0), (1e-9, 1.0), (2e-9, -1.0)])
        assert -1.0 <= w.value(t) <= 1.0


class TestSources:
    def test_dc_and_wave(self):
        v = VoltageSource("v1", "a", "0", dc=1.0,
                          wave=Pulse(0.0, 2.0, tr=1e-12, pw=1e-9))
        assert v.value_at(0.5e-9) == pytest.approx(2.0)
        v2 = VoltageSource("v2", "a", "0", dc=1.0)
        assert v2.value_at(123.0) == 1.0

    def test_ac_phasor(self):
        v = VoltageSource("v1", "a", "0", ac_mag=2.0, ac_phase=90.0)
        assert v.ac_complex.real == pytest.approx(0.0, abs=1e-12)
        assert v.ac_complex.imag == pytest.approx(2.0)

    def test_current_source_value(self):
        i = CurrentSource("i1", "a", "0", dc="1m")
        assert i.dc == 1e-3


class TestMosfet:
    def test_mosmodel_validation(self):
        with pytest.raises(NetlistError):
            MosModel(name="bad", mtype="x")
        with pytest.raises(NetlistError):
            MosModel(name="bad", kp=-1.0)

    def test_mosfet_size_validation(self):
        with pytest.raises(NetlistError):
            Mosfet("m1", "d", "g", "s", "b", "nch", w=0.0, l=1e-6)

    def test_mosfet_accepts_model_object(self):
        model = MosModel(name="nch")
        m = Mosfet("m1", "d", "g", "s", "b", model, w=1e-6, l=1e-6)
        assert m.model == "nch"

    def test_mos_sign(self):
        assert MosModel(name="n", mtype="n").sign == 1.0
        assert MosModel(name="p", mtype="p").sign == -1.0

    def test_renamed(self):
        m = Mosfet("m1", "d", "g", "s", "b", "nch", w=1e-6, l=1e-6)
        m2 = m.renamed("x.m1", {"d": "x.d", "g": "in"})
        assert m2.nodes == ("x.d", "in", "s", "b")
        assert m2.w == m.w


class TestDiode:
    def test_nodes(self):
        d = Diode("d1", "a", "k", "dm")
        assert d.nodes == ("a", "k")
