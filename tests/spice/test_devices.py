"""Device descriptions: validation, renaming, the PULSE waveform."""

import pytest

from repro.spice.devices.mosfet import Mosfet, MosModel
from repro.spice.devices.passives import Capacitor, Resistor
from repro.spice.devices.sources import CurrentSource, Pulse, VoltageSource
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

