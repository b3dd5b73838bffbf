"""Pulses, spectra, 2-PPM modulation and packets."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.uwb.config import TEST_CONFIG, UwbConfig
from repro.uwb.modulation import (
    Packet,
    packet_waveform,
    ppm_positions,
    ppm_pulse_samples,
    ppm_waveform,
    random_bits,
)
from repro.uwb.pulse import (
    gaussian_derivative,
    pulse_band,
    pulse_psd,
    sampled_pulse,
)


class TestPulse:
    def test_peak_normalized(self):
        pulse = sampled_pulse(20e9, 0.09e-9, 5)
        assert np.max(np.abs(pulse)) == pytest.approx(1.0)

    def test_odd_length_symmetric_support(self):
        pulse = sampled_pulse(20e9, 0.2e-9, 4)
        assert len(pulse) % 2 == 1

    @pytest.mark.parametrize("order", [0, 1, 2, 5, 7])
    def test_orders(self, order):
        t = np.linspace(-1e-9, 1e-9, 801)
        pulse = gaussian_derivative(t, 0.1e-9, order)
        assert np.all(np.isfinite(pulse))
        # odd derivatives are odd functions
        if order % 2 == 1:
            assert pulse[400] == pytest.approx(0.0, abs=1e-9)

    def test_derivative_zero_is_gaussian(self):
        t = np.linspace(-1e-9, 1e-9, 801)
        pulse = gaussian_derivative(t, 0.2e-9, 0)
        assert pulse[400] == pytest.approx(1.0)
        assert np.all(pulse > 0)

    def test_validation(self):
        t = np.linspace(-1e-9, 1e-9, 11)
        with pytest.raises(ValueError):
            gaussian_derivative(t, -1.0, 1)
        with pytest.raises(ValueError):
            gaussian_derivative(t, 1e-10, -2)
        with pytest.raises(ValueError):
            sampled_pulse(-1.0, 1e-10)

    def test_psd_parseval(self):
        fs = 20e9
        pulse = sampled_pulse(fs, 0.09e-9)
        freqs, esd = pulse_psd(pulse, fs)
        e_time = np.sum(np.square(pulse)) / fs
        e_freq = np.trapezoid(esd, freqs)
        assert e_freq == pytest.approx(e_time, rel=1e-2)

    def test_uwb_fractional_bandwidth(self):
        """FCC definition: fractional bandwidth ``2 (fh - fl) / (fh +
        fl)`` at 10 dB below the spectral peak > 0.20."""
        f_low, f_high = pulse_band(sampled_pulse(20e9, 0.09e-9, 5), 20e9,
                                   10.0)
        assert 2.0 * (f_high - f_low) / (f_high + f_low) > 0.20


class TestModulation:
    def test_positions(self):
        cfg = TEST_CONFIG
        pos = ppm_positions(np.array([0, 1, 0]), cfg)
        n_sym, n_slot = cfg.samples_per_symbol, cfg.samples_per_slot
        assert pos[0] == n_slot // 2
        assert pos[1] == n_sym + n_slot + n_slot // 2
        assert pos[2] == 2 * n_sym + n_slot // 2

    def test_waveform_slots(self):
        cfg = TEST_CONFIG
        wave = ppm_waveform(np.array([0, 1]), cfg)
        n_sym, n_slot = cfg.samples_per_symbol, cfg.samples_per_slot
        sym0 = wave[:n_sym]
        sym1 = wave[n_sym:2 * n_sym]
        # energy in the correct slot
        assert np.sum(sym0[:n_slot] ** 2) > 10 * np.sum(
            sym0[n_slot:] ** 2)
        assert np.sum(sym1[n_slot:] ** 2) > 10 * np.sum(
            sym1[:n_slot] ** 2)

    def test_waveform_length(self):
        cfg = TEST_CONFIG
        wave = ppm_waveform(np.zeros(5, np.int8), cfg)
        assert len(wave) == 5 * cfg.samples_per_symbol

    def test_amplitude_scaling(self):
        cfg = TEST_CONFIG
        w1 = ppm_waveform(np.zeros(2, np.int8), cfg, amplitude=1.0)
        w2 = ppm_waveform(np.zeros(2, np.int8), cfg, amplitude=0.5)
        assert np.max(np.abs(w2)) == pytest.approx(
            0.5 * np.max(np.abs(w1)))

    @given(st.integers(1, 30))
    @settings(max_examples=10, deadline=None)
    def test_per_symbol_energy_constant(self, n):
        cfg = TEST_CONFIG
        rng = np.random.default_rng(n)
        bits = random_bits(n, rng)
        wave = ppm_waveform(bits, cfg)
        n_sym = cfg.samples_per_symbol
        energies = np.sum(wave[:n * n_sym].reshape(n, n_sym) ** 2, axis=1)
        assert np.allclose(energies, energies[0], rtol=1e-6)

    def test_pulse_samples_are_the_waveform(self):
        """Scattering the pulse samples onto zeros rebuilds the
        unit train sample for sample (edge pulses clipped alike)."""
        cfg = TEST_CONFIG
        bits = random_bits(12, np.random.default_rng(4))
        index, value = ppm_pulse_samples(bits, cfg)
        wave = np.zeros(12 * cfg.samples_per_symbol)
        wave[index] = value
        assert np.array_equal(wave, ppm_waveform(bits, cfg))

    def test_pulse_samples_refuse_overlapping_supports(self):
        cfg = UwbConfig(fs=8e9, symbol_period=8e-9, pulse_tau=0.8e-9,
                        pulse_order=2, integration_window=2e-9)
        assert ppm_pulse_samples(np.array([1, 0, 1]), cfg) is None


class TestPacket:
    def test_symbols_layout(self):
        p = Packet(4, np.array([1, 0, 1], dtype=np.int8))
        assert list(p.symbols) == [0, 0, 0, 0, 1, 0, 1]

    def test_payload_validation(self):
        with pytest.raises(ValueError):
            Packet(4, np.array([0, 2]))
        with pytest.raises(ValueError):
            Packet(-1, np.array([0, 1]))
        with pytest.raises(ValueError):
            Packet(1, np.zeros((2, 2)))

    def test_duration(self):
        """A packet's waveform spans one symbol period per symbol."""
        cfg = TEST_CONFIG
        p = Packet(4, np.zeros(4, np.int8))
        duration = len(packet_waveform(p, cfg)) / cfg.fs
        assert duration == pytest.approx(8 * cfg.symbol_period)

    def test_packet_waveform_preamble_in_slot0(self):
        cfg = TEST_CONFIG
        p = Packet(3, np.zeros(0, np.int8))
        wave = packet_waveform(p, cfg)
        n_sym, n_slot = cfg.samples_per_symbol, cfg.samples_per_slot
        for k in range(3):
            sym = wave[k * n_sym:(k + 1) * n_sym]
            assert np.sum(sym[:n_slot] ** 2) > 10 * np.sum(
                sym[n_slot:] ** 2)


class TestConfig:
    def test_dt_is_paper_step(self):
        assert UwbConfig().dt == pytest.approx(0.05e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            UwbConfig(fs=-1.0).validate()
        with pytest.raises(ValueError):
            UwbConfig(integration_window=1.0).validate()

    def test_derived_sizes(self):
        cfg = UwbConfig()
        assert cfg.samples_per_symbol == 320
        assert cfg.samples_per_slot == 160
        assert cfg.samples_per_window == 40

    def test_scaled(self):
        cfg = UwbConfig().scaled(payload_bits=8)
        assert cfg.payload_bits == 8
