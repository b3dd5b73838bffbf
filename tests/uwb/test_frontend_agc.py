"""VGA, BPF and AGC policies."""

import math

import numpy as np
import pytest

from repro.uwb.adc import Adc
from repro.uwb.agc import Agc, TwoStageAgc
from repro.uwb.bpf import OVERWRITE_BLOCK, BandPassFilter
from repro.uwb.frontend import Vga
from repro.uwb.pulse import pulse_band, sampled_pulse


class TestVga:
    def test_code_quantization(self):
        vga = Vga(step_db=2.0, min_db=0.0, max_db=40.0)
        vga.set_gain_db(13.0)
        assert vga.gain_db in (12.0, 14.0)
        vga.set_gain_db(500.0)
        assert vga.gain_db == 40.0
        vga.set_gain_db(-10.0)
        assert vga.gain_db == 0.0

    def test_n_codes(self):
        vga = Vga(step_db=2.0, min_db=0.0, max_db=40.0)
        assert vga.n_codes == 21

    def test_application(self):
        vga = Vga(sat=None)
        vga.set_gain_db(20.0)
        assert vga(np.array([0.01]))[0] == pytest.approx(0.1)

    def test_validation(self):
        with pytest.raises(ValueError):
            Vga(step_db=0.0)
        with pytest.raises(ValueError):
            Vga(min_db=10.0, max_db=0.0)


class TestBpf:
    def test_passband_and_stopband(self):
        fs = 20e9
        bpf = BandPassFilter((2e9, 6e9), fs)
        t = np.arange(4096) / fs

        def tone_gain(freq):
            x = np.sin(2 * math.pi * freq * t)
            y = bpf(x)
            return np.max(np.abs(y[2048:]))

        assert tone_gain(4e9) > 0.9
        assert tone_gain(0.3e9) < 0.05
        assert tone_gain(9.5e9) < 0.05

    def test_for_pulse_band(self):
        bpf = BandPassFilter.for_pulse(20e9, 0.09e-9, 5)
        low, high = bpf.band
        assert 1e9 < low < 4e9
        assert 4e9 < high < 9e9

    def test_pulse_band_helper(self):
        pulse = sampled_pulse(20e9, 0.09e-9, 5)
        low, high = pulse_band(pulse, 20e9, 6.0)
        assert low < 4e9 < high  # peak around 4 GHz

    @pytest.mark.parametrize(
        "n", [1, OVERWRITE_BLOCK, 2 * OVERWRITE_BLOCK + 7])
    def test_in_place_pass_is_one_pass(self, n):
        """Filtering in place, a block at a time, returns the input
        array holding exactly the one-pass output."""
        bpf = BandPassFilter((2e9, 6e9), 20e9)
        x = np.random.default_rng(n).standard_normal(n)
        expected = bpf(x)
        out = bpf(x, overwrite_x=True)
        assert out is x
        assert np.array_equal(out, expected)

    def test_in_place_pass_needs_a_float64_vector(self):
        bpf = BandPassFilter((2e9, 6e9), 20e9)
        for x in (np.zeros(8, dtype=np.float32), np.zeros((2, 8))):
            with pytest.raises(ValueError, match="float64 vector"):
                bpf(x, overwrite_x=True)

    def test_validation(self):
        with pytest.raises(ValueError):
            BandPassFilter((5e9, 2e9), 20e9)
        with pytest.raises(ValueError):
            BandPassFilter((1e9, 11e9), 20e9)  # above Nyquist


class TestAgcPolicies:
    def _parts(self):
        vga = Vga(step_db=2.0, min_db=0.0, max_db=80.0)
        adc = Adc(bits=5, vref=1.0)
        return vga, adc

    def test_single_stage_targets_adc_fill(self):
        vga, adc = self._parts()
        agc = Agc(vga, adc, integrator_k=6.25e7, fill=0.85)
        window_energy = 1e-12
        decision = agc.decide(peak_amplitude=0.01,
                              window_energy=window_energy)
        agc.apply(decision)
        achieved = 6.25e7 * vga.gain ** 2 * window_energy
        # within one 2 dB step of the target (0.85 V)
        assert 0.85 / 10 ** 0.2 < achieved < 0.85 * 10 ** 0.2
        assert decision.post_gain == 1.0

    def test_zero_energy_safe(self):
        vga, adc = self._parts()
        agc = Agc(vga, adc, integrator_k=6.25e7)
        decision = agc.decide(0.0, 0.0)
        assert decision.code == 0

    def test_two_stage_limits_amplitude(self):
        vga, adc = self._parts()
        agc = TwoStageAgc(vga, adc, integrator_k=6.25e7,
                          amp_target=0.08)
        peak = 5e-4
        decision = agc.decide(peak_amplitude=peak, window_energy=1e-17)
        agc.apply(decision)
        squared_peak = (vga.gain * peak) ** 2
        assert squared_peak < 0.15  # inside the linear range
        assert decision.post_gain > 1.0  # energy made up after the I&D

    def test_missing_gain_rejected_loudly(self):
        """No silent 7e7-style default: energy matching against a
        wrong K mis-scales every downstream decision."""
        vga, adc = self._parts()
        with pytest.raises(ValueError, match="integration constant"):
            Agc(vga, adc, integrator_k=None)
        with pytest.raises(ValueError, match="positive and finite"):
            Agc(vga, adc, integrator_k=0.0)
        with pytest.raises(ValueError, match="positive and finite"):
            Agc(vga, adc, integrator_k=-1e7)
        with pytest.raises(ValueError, match="positive and finite"):
            Agc(vga, adc, integrator_k=math.nan)
        with pytest.raises(ValueError, match="integration constant"):
            TwoStageAgc(vga, adc, integrator_k=None)

    def test_two_stage_energy_restored(self):
        vga, adc = self._parts()
        agc = TwoStageAgc(vga, adc, integrator_k=6.25e7, fill=0.85,
                          amp_target=0.08)
        peak, energy = 5e-4, 1e-17
        decision = agc.decide(peak, energy)
        agc.apply(decision)
        final = (6.25e7 * vga.gain ** 2 * energy) * decision.post_gain
        assert final == pytest.approx(0.85, rel=1e-6)

    def test_validation(self):
        vga, adc = self._parts()
        with pytest.raises(ValueError):
            Agc(vga, adc, 6.25e7, fill=0.0)
        with pytest.raises(ValueError):
            TwoStageAgc(vga, adc, 6.25e7, amp_target=-1.0)
