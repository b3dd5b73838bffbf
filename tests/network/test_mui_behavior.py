"""Behavioral tests of the multi-user pipeline path.

Physics-level expectations: interference hurts a non-coherent energy
detector, weaker interference hurts less, SIR calibration lands exact
received ratios, the combine stage sums what it says it sums, and the
single-link operations refuse what they cannot synthesize.
"""

import dataclasses

import numpy as np
import pytest

from repro.link import ops
from repro.link.backends import build_interferer_paths, calibrate
from repro.link.pipeline import CombineStage, InterfererPath
from repro.link.spec import (
    ChannelSpec,
    InterfererSpec,
    LinkSpec,
    NetworkSpec,
)
from repro.uwb.config import TEST_CONFIG
from repro.uwb.fastsim import BerResult
from repro.uwb.modulation import ppm_waveform, random_bits

BUDGET = dict(target_errors=100, max_bits=8_000, min_bits=4_000)
SPEC = LinkSpec(config=TEST_CONFIG)
EBN0 = 14.0


def _ber(network_or_spec, seed=21):
    curve = ops.ber_curve(network_or_spec, [EBN0],
                          np.random.default_rng(seed), **BUDGET)
    return float(curve.ber[0])


def _offset(fraction):
    return fraction * TEST_CONFIG.slot


class TestInterferenceBehavior:
    def test_equal_power_interferer_degrades_ber(self):
        clean = _ber(SPEC)
        jammed = _ber(NetworkSpec(victim=SPEC, interferers=(
            InterfererSpec(rel_power_db=0.0,
                           timing_offset=_offset(0.5)),)))
        assert jammed > max(clean * 5, 0.05)

    def test_weak_interferer_is_benign(self):
        clean = _ber(SPEC)
        faint = _ber(NetworkSpec(victim=SPEC, interferers=(
            InterfererSpec(rel_power_db=-30.0,
                           timing_offset=_offset(0.3)),)))
        assert faint <= max(clean * 2.0, 0.02)

    def test_more_interferers_hurt_more(self):
        def net(n):
            return NetworkSpec(victim=SPEC, interferers=tuple(
                InterfererSpec(rel_power_db=-3.0,
                               timing_offset=_offset(0.2 + 0.15 * i))
                for i in range(n)))

        one, four = _ber(net(1)), _ber(net(4))
        assert four > one

    def test_sir_calibration_exact(self):
        """rel_power_db is an exact received energy ratio: the
        calibrated amplitude reproduces it on the pilots."""
        network = NetworkSpec(victim=SPEC, interferers=(
            InterfererSpec(rel_power_db=-6.0),))
        cache = calibrate(SPEC)
        (path,) = build_interferer_paths(network, cache=cache)
        # The interferer's pilot energy through the victim's band-pass,
        # scaled by the calibrated amplitude, sits exactly 6 dB under
        # the victim's pilot energy.
        from repro.link.backends import _LinkCache

        pilot = _LinkCache(TEST_CONFIG, None, cache.bpf)
        ratio_db = 10 * np.log10(path.amplitude ** 2 * pilot.eb
                                 / cache.eb)
        assert ratio_db == pytest.approx(-6.0, abs=1e-9)

    def test_near_far_mode_uses_unit_amplitude(self):
        network = NetworkSpec(victim=SPEC, interferers=(
            InterfererSpec(rel_power_db=None),))
        (path,) = build_interferer_paths(network)
        assert path.amplitude == 1.0

    def test_independent_cm1_realizations(self):
        """Interferers draw their own channel, not the victim's."""
        spec = dataclasses.replace(SPEC, channel=ChannelSpec(
            kind="cm1", distance=9.9, realization_seed=1234))
        network = NetworkSpec(victim=spec, interferers=(
            InterfererSpec(rel_power_db=None,
                           channel=spec.channel),
            InterfererSpec(rel_power_db=None,
                           channel=spec.channel.__class__(
                               kind="cm1", distance=9.9,
                               realization_seed=4321)),))
        same_seed, other_seed = build_interferer_paths(network)
        from repro.link.backends import build_channel_realization

        victim_real = build_channel_realization(spec)
        assert np.array_equal(same_seed.channel.taps, victim_real.taps)
        assert not np.array_equal(other_seed.channel.taps,
                                  victim_real.taps)


class TestCombineStage:
    def test_sums_scaled_rolled_interferers(self, link_front):
        """The combined waveform is victim + sum(amp * roll(intf))
        with bits drawn victim-first, interferer order next."""
        cfg = TEST_CONFIG
        n = 16
        path = InterfererPath(amplitude=0.5, offset_samples=37)
        pipeline = link_front(cfg, calibrate(LinkSpec(config=cfg)).bpf,
                              interferers=(path,))
        state = pipeline.draw(n, np.random.default_rng(77))
        *synthesis, front_end = pipeline.stages
        for stage in synthesis:
            stage.process(state)

        replay = np.random.default_rng(77)
        victim_bits = random_bits(n, replay)
        intf_bits = random_bits(n, replay)
        expected = ppm_waveform(victim_bits, cfg) + 0.5 * np.roll(
            ppm_waveform(intf_bits, cfg), 37)
        assert np.array_equal(state.bits, victim_bits)
        assert np.array_equal(state.waveform, expected)
        # The one unit-noise vector is drawn after every bit draw, and
        # the front end filters the clean sum on its own (in place).
        assert np.array_equal(state.unit,
                              replay.standard_normal(expected.size))
        front_end.process(state)
        assert state.waveform is None
        assert np.array_equal(
            state.signal.ravel(),
            calibrate(LinkSpec(config=cfg)).bpf(expected))

    @pytest.mark.parametrize("offset", [0, 37, -5, 4097, 10**6 + 3])
    def test_sparse_add_is_the_dense_roll(self, offset):
        """A channel-free interferer scatter-adds its pulses into the
        victim: the sum equals victim + amp * roll(train) at any
        circular offset."""
        cfg = TEST_CONFIG
        rng = np.random.default_rng(5)
        victim = ppm_waveform(random_bits(16, rng), cfg)
        bits = random_bits(16, rng)
        expected = victim + 0.3 * np.roll(ppm_waveform(bits, cfg), offset)
        InterfererPath(amplitude=0.3, offset_samples=offset).add_to(
            victim, bits, cfg)
        assert np.array_equal(victim, expected)

    @pytest.mark.parametrize("offset", [0, 37])
    def test_overlapping_pulses_add_the_dense_roll(self, offset):
        """A pulse longer than the slot has no sparse form; a
        channel-free interferer then adds its dense pulse train."""
        cfg = dataclasses.replace(TEST_CONFIG,
                                  pulse_tau=TEST_CONFIG.pulse_tau * 8)
        rng = np.random.default_rng(5)
        victim = ppm_waveform(random_bits(16, rng), cfg)
        bits = random_bits(16, rng)
        expected = victim + 0.3 * np.roll(ppm_waveform(bits, cfg), offset)
        InterfererPath(amplitude=0.3, offset_samples=offset).add_to(
            victim, bits, cfg)
        assert np.array_equal(victim, expected)

    def test_zero_interferers_leave_waveform_untouched(self):
        stage = CombineStage(TEST_CONFIG)
        assert stage.interferers == ()


class TestBackendSurface:
    def test_kernel_backend_rejects_networks(self):
        network = NetworkSpec(victim=SPEC)
        with pytest.raises(TypeError, match="NetworkSpec"):
            ops.run_testbench(network, np.zeros(64), engine="reference")
        with pytest.raises(TypeError, match="NetworkSpec"):
            ops.golden_packet(network, np.zeros(64))

    def test_ranging_rejects_networks(self):
        with pytest.raises(TypeError, match="NetworkSpec"):
            ops.ranging(NetworkSpec(victim=SPEC), 3,
                        np.random.default_rng(1))

    def test_ops_mui_ber_curve(self):
        network = NetworkSpec(victim=SPEC, interferers=(
            InterfererSpec(rel_power_db=0.0,
                           timing_offset=_offset(0.3)),))
        curve = ops.mui_ber_curve(network, (6.0, 14.0),
                                  np.random.default_rng(9),
                                  target_errors=50, max_bits=4_000,
                                  min_bits=2_000, label="jammed")
        assert isinstance(curve, BerResult)
        assert curve.label == "jammed"
        assert len(curve.ber) == 2
        assert curve.bits.sum() > 0

    def test_ops_mui_rejects_plain_link(self):
        with pytest.raises(TypeError, match="NetworkSpec"):
            ops.mui_ber_curve(SPEC, (8.0,), np.random.default_rng(1))
