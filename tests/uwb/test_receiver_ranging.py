"""Packet receiver (NE/PS/AGC/sync/demod) and two-way ranging."""

import numpy as np
import pytest

from repro.link.backends import build_receiver
from repro.link.spec import FrontEndSpec, LinkSpec
from repro.uwb.channel.ieee802154a import Cm1Channel
from repro.uwb.config import SPEED_OF_LIGHT, UwbConfig
from repro.uwb.integrator import CircuitSurrogateIntegrator, IdealIntegrator
from repro.uwb.modulation import Packet, packet_waveform, random_bits
from repro.uwb.ranging import TwoWayRanging
from repro.uwb.receiver import EnergyDetectionReceiver

CFG = UwbConfig(preamble_symbols=16, payload_bits=16,
                adc_vref=2e-3, agc_range_db=80.0)


def receiver(integrator=None, **frontend):
    """The packet receiver of CFG with *integrator* (default: the
    spec's ideal one) and *frontend* policy overrides."""
    spec = LinkSpec(config=CFG, frontend=FrontEndSpec(**frontend))
    return build_receiver(spec, integrator=integrator)


def make_rx_waveform(cfg, rng, amplitude=1e-3, noise=1e-5,
                     delay_samples=700, payload=None):
    payload = payload if payload is not None else random_bits(
        cfg.payload_bits, rng)
    packet = Packet(cfg.preamble_symbols, payload)
    wave = packet_waveform(packet, cfg, amplitude=amplitude)
    idle = (cfg.noise_est_windows + 8) * cfg.samples_per_window
    rx = np.concatenate([np.zeros(idle), np.zeros(delay_samples), wave,
                         np.zeros(cfg.samples_per_symbol)])
    rx += rng.normal(0.0, noise, size=len(rx))
    return rx, payload, idle + delay_samples


class TestDefaultAgcGain:
    def test_k_derived_from_integrator(self):
        """The default AGC takes the installed model's nominal
        integration constant - no magic fallback."""
        for integrator in (IdealIntegrator(),
                           CircuitSurrogateIntegrator()):
            rcv = receiver(integrator)
            assert rcv.agc.integrator_k == integrator.ideal_k

    def test_gainless_integrator_rejected(self):
        from repro.uwb.integrator import WindowIntegrator

        class Opaque(WindowIntegrator):
            def window_outputs(self, x, dt):
                return np.sum(x, axis=-1) * dt

        with pytest.raises(ValueError, match="ideal_k"):
            receiver(Opaque())

    def test_explicit_agc_bypasses_derivation(self):
        from repro.uwb.adc import Adc
        from repro.uwb.agc import Agc
        from repro.uwb.bpf import BandPassFilter
        from repro.uwb.frontend import Vga
        from repro.uwb.integrator import WindowIntegrator

        class Opaque(WindowIntegrator):
            def window_outputs(self, x, dt):
                return np.sum(x, axis=-1) * dt

        vga = Vga(step_db=CFG.agc_steps_db, max_db=CFG.agc_range_db)
        adc = Adc(bits=CFG.adc_bits, vref=CFG.adc_vref)
        agc = Agc(vga, adc, integrator_k=1e8)
        bpf = BandPassFilter.for_pulse(CFG.fs, CFG.pulse_tau,
                                       CFG.pulse_order)
        rcv = EnergyDetectionReceiver(CFG, Opaque(), vga=vga, adc=adc,
                                      agc=agc, bpf=bpf,
                                      detection_factor=6.0,
                                      toa_threshold_fraction=0.10)
        assert rcv.agc is agc


class TestReceiver:
    def test_detects_and_demodulates_clean_packet(self, rng):
        rx, payload, _start = make_rx_waveform(CFG, rng)
        result = receiver().process(rx, payload_bits=CFG.payload_bits)
        assert result.detected
        assert len(result.bits) == CFG.payload_bits
        assert np.mean(result.bits != payload) < 0.2

    def test_no_detection_on_pure_noise(self, rng):
        noise = rng.normal(0.0, 1e-5, 40 * CFG.samples_per_symbol)
        result = receiver(detection_factor=8.0).process(
            noise, payload_bits=4)
        assert not result.detected
        assert result.toa is None

    def test_toa_near_truth(self, rng):
        rx, _payload, start = make_rx_waveform(CFG, rng, noise=5e-6)
        result = receiver().process(rx, payload_bits=4)
        true_toa = (start + CFG.samples_per_slot // 2) * CFG.dt
        assert result.detected
        assert abs(result.toa - true_toa) < 6 * CFG.integration_window

    def test_agc_programs_vga(self, rng):
        rx, _payload, _start = make_rx_waveform(CFG, rng)
        rcv = receiver()
        result = rcv.process(rx, payload_bits=4)
        assert result.agc is not None
        assert rcv.vga.code == result.agc.code
        assert rcv.vga.gain_db > 0

    def test_sync_profile_shape(self, rng):
        rx, _payload, _start = make_rx_waveform(CFG, rng, noise=5e-6)
        result = receiver().process(rx, payload_bits=4)
        profile = result.sync_profile
        assert len(profile) == (CFG.samples_per_symbol
                                // CFG.samples_per_window)
        assert profile[result.sync_phase] == profile.max()

    def test_too_short_waveform_raises(self):
        with pytest.raises(ValueError):
            receiver().process(np.zeros(10))

    def test_toa_fraction_validation(self):
        with pytest.raises(ValueError):
            receiver(toa_threshold_fraction=1.5)

    def test_window_energies(self):
        x = np.ones(CFG.samples_per_window * 3)
        energies = receiver().window_energies(x)
        assert len(energies) == 3
        assert energies[0] == pytest.approx(
            CFG.samples_per_window * CFG.dt)


class TestTwoWayRanging:
    def test_ideal_channel_zero_noise_exact(self):
        """No noise, delay-only channel: exact to the window grid."""
        twr = TwoWayRanging(
            CFG, receiver,
            distance=9.9, tx_amplitude=1e-3, noise_sigma=1e-7,
            channel=None)
        res = twr.run(3, np.random.default_rng(0))
        window_m = SPEED_OF_LIGHT * CFG.integration_window
        assert abs(res.offset) <= window_m
        assert res.std <= window_m

    def test_cm1_ranging_statistics(self):
        chan = Cm1Channel(CFG.fs)
        twr = TwoWayRanging(
            CFG, lambda: receiver(toa_threshold_fraction=0.5,
                                  detection_factor=8.0),
            distance=9.9, tx_amplitude=1.0, noise_sigma=9e-5,
            channel=chan)
        res = twr.run(6, np.random.default_rng(42))
        assert 9.0 < res.mean < 13.0
        assert res.variance < 10.0
        assert res.true_distance == 9.9
        assert len(res.distances) == 6

    def test_compression_increases_offset(self):
        """The table-2 headline: the circuit integrator's compressed
        output crosses the arrival threshold later (paired seeds)."""
        chan = Cm1Channel(CFG.fs)

        def run(integ):
            twr = TwoWayRanging(
                CFG, lambda: receiver(integ, toa_threshold_fraction=0.5,
                                      detection_factor=8.0),
                distance=9.9, tx_amplitude=1.0, noise_sigma=9e-5,
                channel=chan)
            return twr.run(8, np.random.default_rng(42))

        ideal = run(IdealIntegrator())
        circuit = run(CircuitSurrogateIntegrator())
        assert circuit.offset >= ideal.offset - 1e-9
        assert circuit.offset > 0

    def test_weak_link_raises(self):
        twr = TwoWayRanging(
            CFG, receiver,
            distance=9.9, tx_amplitude=1e-9, noise_sigma=1e-3,
            channel=None)
        with pytest.raises(RuntimeError):
            twr.run(2, np.random.default_rng(1))

    def test_distance_validation(self):
        with pytest.raises(ValueError):
            TwoWayRanging(CFG, lambda: None, distance=-1.0)
