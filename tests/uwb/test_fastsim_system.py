"""Vectorized BER engine and the AMS-kernel receiver."""

from dataclasses import replace

import numpy as np
import pytest

from repro.link import ops
from repro.link.backends import _LinkCache, build_integrator
from repro.link.spec import LinkSpec
from repro.uwb.bpf import BandPassFilter
from repro.uwb.config import UwbConfig
from repro.uwb.integrator import (
    CircuitSurrogateIntegrator,
    IdealIntegrator,
    TwoPoleIntegrator,
)
from repro.uwb.modulation import ppm_waveform, random_bits

FAST = UwbConfig(fs=8e9, symbol_period=16e-9, pulse_tau=0.225e-9,
                 pulse_order=5, integration_window=2e-9)
SPEC = LinkSpec(config=FAST)


def ber_point(spec, ebn0_db, rng, **budget):
    """``(errors, bits)`` of a one-point :func:`ops.ber_curve`."""
    curve = ops.ber_curve(spec, [ebn0_db], rng, **budget)
    return int(curve.errors[0]), int(curve.bits[0])


class TestFastsim:
    def test_ber_decreases_with_snr(self):
        res = ops.ber_curve(
            SPEC, [2.0, 8.0, 14.0], np.random.default_rng(3),
            target_errors=40, max_bits=8000, min_bits=800)
        assert res.ber[0] > res.ber[1] > res.ber[2]

    def test_high_snr_nearly_clean(self):
        errors, bits = ber_point(
            SPEC, 25.0, np.random.default_rng(4),
            target_errors=10, max_bits=3000, min_bits=1000)
        assert errors / bits < 0.01

    def test_paired_seed_reproducible(self):
        kwargs = dict(target_errors=20, max_bits=3000, min_bits=500)
        a = ber_point(SPEC, 8.0,
                      np.random.default_rng(5), **kwargs)
        b = ber_point(SPEC, 8.0,
                      np.random.default_rng(5), **kwargs)
        assert a == b

    def test_two_pole_close_to_ideal_at_drive(self):
        kwargs = dict(target_errors=50, max_bits=6000, min_bits=2000)
        spec = SPEC.with_frontend(squarer_drive=0.05)
        e_i, n_i = ber_point(
            spec, 10.0, np.random.default_rng(6),
            integrator=IdealIntegrator(), **kwargs)
        e_t, n_t = ber_point(
            spec, 10.0, np.random.default_rng(6),
            integrator=TwoPoleIntegrator(), **kwargs)
        assert abs(e_i / n_i - e_t / n_t) < 0.05

    def test_overdrive_degrades_circuit_ber(self):
        kwargs = dict(target_errors=60, max_bits=8000, min_bits=3000,
                      integrator=CircuitSurrogateIntegrator())
        e_lin, n_lin = ber_point(
            SPEC.with_frontend(squarer_drive=0.05), 10.0,
            np.random.default_rng(7), **kwargs)
        e_sat, n_sat = ber_point(
            SPEC.with_frontend(squarer_drive=0.35), 10.0,
            np.random.default_rng(7), **kwargs)
        assert e_sat / n_sat > e_lin / n_lin

    def test_result_rows(self):
        res = ops.ber_curve(
            SPEC, [5.0], np.random.default_rng(8),
            target_errors=10, max_bits=1000, min_bits=500, label="x")
        assert len(res.bits) == 1
        assert res.bits[0] >= 500
        assert res.label == "x"


class TestLinkCachePilot:
    """The cached Eb/peak pilot must see exactly the data-path
    processing of the BER sweep (band-pass + whole-symbol
    truncation)."""

    def test_pilot_matches_data_path(self):
        bpf = BandPassFilter.for_pulse(FAST.fs, FAST.pulse_tau,
                                       FAST.pulse_order)
        cache = _LinkCache(FAST, bpf)
        n_sym = FAST.samples_per_symbol
        pilot = ppm_waveform(np.zeros(8, dtype=np.int8), FAST)
        filtered = bpf(pilot)[:8 * n_sym]
        expected_eb = float(np.sum(filtered ** 2) * FAST.dt / 8)
        assert cache.eb == pytest.approx(expected_eb, rel=1e-12)
        assert cache.peak == pytest.approx(
            float(np.max(np.abs(filtered))), rel=1e-12)


class TestAmsReceiver:
    def _clean_signal(self, bits, noise=0.0, seed=0):
        rng = np.random.default_rng(seed)
        wave = ppm_waveform(bits, FAST, amplitude=1.0)
        if noise:
            wave = wave + rng.normal(0.0, noise, len(wave))
        bpf = BandPassFilter.for_pulse(FAST.fs, FAST.pulse_tau,
                                       FAST.pulse_order)
        sig = bpf(wave)
        return 0.25 * sig / np.max(np.abs(sig))

    def test_noise_free_demodulation(self):
        bits = np.array([1, 0, 0, 1, 1, 0], dtype=np.int8)
        sig = self._clean_signal(bits)
        for kind in ("ideal", "two_pole", "surrogate"):
            res = ops.run_testbench(replace(SPEC, integrator=kind), sig)
            assert np.array_equal(res.bits, bits), kind

    def test_cosim_demodulation(self):
        bits = np.array([1, 0, 1], dtype=np.int8)
        sig = self._clean_signal(bits)
        res = ops.run_testbench(replace(SPEC, integrator="circuit"), sig)
        assert np.array_equal(res.bits, bits)
        assert res.cpu_time > 0

    def test_cosim_slower_than_behavioral(self):
        bits = np.array([1, 0], dtype=np.int8)
        sig = self._clean_signal(bits)
        fast = ops.run_testbench(SPEC, sig)
        slow = ops.run_testbench(replace(SPEC, integrator="circuit"), sig)
        assert slow.cpu_time > 2.0 * fast.cpu_time

    def test_recorder_attached(self):
        bits = np.array([0, 1], dtype=np.int8)
        sig = self._clean_signal(bits)
        res = ops.run_testbench(SPEC, sig, record=True)
        assert res.recorder is not None
        trace = res.recorder.trace("int_out")
        assert trace.maximum() > 0

    def test_slot_values_shape(self):
        bits = np.zeros(4, dtype=np.int8)
        sig = self._clean_signal(bits)
        res = ops.run_testbench(SPEC, sig)
        assert res.slot_values.shape == (4, 2)
        # preamble-like zeros: slot 0 collects the energy
        assert np.all(res.slot_values[:, 0] > res.slot_values[:, 1])

    def test_make_integrator_resolution(self):
        def resolve(kind):
            return build_integrator(SPEC, kind, cosim=True)

        assert isinstance(resolve("ideal"), IdealIntegrator)
        assert isinstance(resolve("two_pole"), TwoPoleIntegrator)
        assert resolve("circuit") == "circuit"
        inst = TwoPoleIntegrator()
        assert resolve(inst) is inst
        with pytest.raises(ValueError):
            resolve("quantum")
