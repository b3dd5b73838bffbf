"""IEEE 802.15.4a CM1 channel and AWGN."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.uwb.channel.awgn import noise_sigma_for_ebn0
from repro.uwb.channel.ieee802154a import (
    CM1_PARAMETERS,
    Cm1Channel,
    path_loss_db,
)
from repro.uwb.config import SPEED_OF_LIGHT


class TestPathLoss:
    def test_reference_point(self):
        assert path_loss_db(1.0) == pytest.approx(43.9)

    def test_exponent(self):
        delta = path_loss_db(10.0) - path_loss_db(1.0)
        assert delta == pytest.approx(10 * 1.79, rel=1e-6)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            path_loss_db(0.0)
        with pytest.raises(ValueError):
            path_loss_db(-3.0)

    def test_sub_meter_distance_below_reference(self):
        """The power law extrapolates below 1 m: PL < PL0, still
        finite."""
        pl = path_loss_db(0.1)
        assert pl == pytest.approx(43.9 - 10 * 1.79)
        assert math.isfinite(pl)

    def test_monotone_in_distance(self):
        distances = [0.5, 1.0, 2.0, 5.0, 9.9, 20.0]
        losses = [path_loss_db(d) for d in distances]
        assert losses == sorted(losses)
        assert len(set(losses)) == len(losses)

    def test_custom_parameters(self):
        from repro.uwb.channel.ieee802154a import (
            SalehValenzuelaParameters,
        )
        import dataclasses

        params = dataclasses.replace(CM1_PARAMETERS, pl0_db=50.0,
                                     pl_exponent=2.0)
        assert path_loss_db(1.0, params) == pytest.approx(50.0)
        assert path_loss_db(10.0, params) == pytest.approx(70.0)
        assert isinstance(params, SalehValenzuelaParameters)


class TestCm1Realizations:
    def test_energy_matches_path_loss(self):
        chan = Cm1Channel(20e9)
        rng = np.random.default_rng(0)
        real = chan.realize(9.9, rng)
        expected = 10.0 ** (-path_loss_db(9.9) / 10.0)
        assert np.sum(real.taps ** 2) == pytest.approx(expected, rel=1e-9)

    def test_unit_energy_without_path_loss(self):
        chan = Cm1Channel(20e9, apply_path_loss=False)
        real = chan.realize(5.0, np.random.default_rng(1))
        assert np.sum(real.taps ** 2) == pytest.approx(1.0, rel=1e-9)

    def test_los_delay(self):
        chan = Cm1Channel(20e9)
        real = chan.realize(9.9, np.random.default_rng(2))
        expected = int(round(9.9 / SPEED_OF_LIGHT * 20e9))
        assert real.delay_samples == expected

    def test_first_tap_is_strongest_on_average(self):
        """CM1 is LOS: the deterministic first path dominates."""
        chan = Cm1Channel(20e9, apply_path_loss=False)
        rng = np.random.default_rng(3)
        wins = 0
        for _ in range(20):
            real = chan.realize(9.9, rng)
            if np.argmax(np.abs(real.taps)) == 0:
                wins += 1
        assert wins >= 15

    def test_decaying_power_profile(self):
        chan = Cm1Channel(20e9, apply_path_loss=False)
        rng = np.random.default_rng(4)
        profile = np.zeros(chan_taps(chan))
        for _ in range(30):
            profile += chan.realize(9.9, rng).taps ** 2
        early = profile[: len(profile) // 4].sum()
        late = profile[-len(profile) // 4:].sum()
        assert early > 5 * late

    def test_rms_delay_spread_in_range(self):
        """CM1 RMS delay spread is on the order of 10-20 ns."""
        chan = Cm1Channel(20e9, apply_path_loss=False)
        rng = np.random.default_rng(5)
        t = np.arange(chan_taps(chan)) / chan.fs
        spreads = []
        for _ in range(10):
            power = chan.realize(9.9, rng).taps ** 2
            mean = np.sum(t * power) / np.sum(power)
            spreads.append(math.sqrt(np.sum((t - mean) ** 2 * power)
                                     / np.sum(power)))
        assert 2e-9 < np.median(spreads) < 40e-9

    def test_apply_shapes(self):
        chan = Cm1Channel(20e9)
        real = chan.realize(3.0, np.random.default_rng(6))
        x = np.zeros(100)
        x[0] = 1.0
        y = real.apply(x, extra_tail=7)
        assert len(y) == real.delay_samples + 100 + len(real.taps) - 1 + 7
        # nothing before the flight delay
        assert np.all(y[: real.delay_samples] == 0.0)

    def test_seed_reproducibility(self):
        chan = Cm1Channel(20e9)
        a = chan.realize(9.9, np.random.default_rng(7)).taps
        b = chan.realize(9.9, np.random.default_rng(7)).taps
        assert np.array_equal(a, b)

    def test_seed_reproducibility_full_realization(self):
        """Same seed => the *entire* realization is identical (taps,
        delay, rate, distance), including across channel instances -
        the property the campaign layer's content addressing leans
        on."""
        a = Cm1Channel(20e9).realize(9.9, np.random.default_rng(123))
        b = Cm1Channel(20e9).realize(9.9, np.random.default_rng(123))
        assert np.array_equal(a.taps, b.taps)
        assert a.delay_samples == b.delay_samples
        assert a.fs == b.fs and a.distance == b.distance
        # and the realizations behave identically end to end
        x = np.random.default_rng(0).normal(size=64)
        assert np.array_equal(a.apply(x), b.apply(x))

    def test_different_seeds_differ(self):
        chan = Cm1Channel(20e9)
        a = chan.realize(9.9, np.random.default_rng(7)).taps
        b = chan.realize(9.9, np.random.default_rng(8)).taps
        assert not np.array_equal(a, b)

    def test_shared_generator_advances(self):
        """Two draws from one generator are distinct realizations (the
        stream advances), unlike two freshly seeded generators."""
        chan = Cm1Channel(20e9)
        rng = np.random.default_rng(7)
        a = chan.realize(9.9, rng).taps
        b = chan.realize(9.9, rng).taps
        assert not np.array_equal(a, b)

    def test_distance_validation(self):
        chan = Cm1Channel(20e9)
        with pytest.raises(ValueError):
            chan.realize(-1.0, np.random.default_rng(0))


def chan_taps(chan: Cm1Channel) -> int:
    return int(round(chan.max_excess_delay * chan.fs)) + 1


class TestAwgn:
    def test_sigma_for_ebn0(self):
        eb = 1e-12
        fs = 20e9
        sigma = noise_sigma_for_ebn0(eb, 10.0, fs)
        n0 = eb / 10.0
        assert sigma == pytest.approx(math.sqrt(n0 * fs / 2.0))
        with pytest.raises(ValueError):
            noise_sigma_for_ebn0(-1.0, 10.0, fs)

    @given(st.floats(1.0, 20.0))
    @settings(max_examples=10, deadline=None)
    def test_sigma_monotone_in_ebn0(self, ebn0):
        s1 = noise_sigma_for_ebn0(1e-12, ebn0, 20e9)
        s2 = noise_sigma_for_ebn0(1e-12, ebn0 + 1.0, 20e9)
        assert s2 < s1


class TestRelDelayAndTail:
    """The delay-trimmed received() window and apply() tail-length
    semantics."""

    def test_received_is_the_delay_trimmed_window(self):
        """received(x, n) is the n samples after the flight delay:
        apply(x)[delay : delay + n]."""
        real = Cm1Channel(20e9).realize(9.9, np.random.default_rng(38))
        x = np.random.default_rng(39).normal(size=400)
        d = real.delay_samples
        assert d > 0
        assert np.array_equal(real.received(x, 400),
                              real.apply(x)[d: d + 400])

    def test_extra_tail_appends_after_ringing(self):
        """extra_tail zeros come after the full convolution - they
        never truncate multipath energy."""
        chan = Cm1Channel(20e9)
        real = chan.realize(3.0, np.random.default_rng(34))
        x = np.random.default_rng(35).normal(size=400)
        plain = real.apply(x)
        padded = real.apply(x, extra_tail=64)
        assert len(padded) == len(plain) + 64
        assert np.array_equal(padded[: len(plain)], plain)
        assert np.all(padded[len(plain):] == 0.0)

    def test_extra_tail_keeps_chunk_window_slices_valid(self):
        """The contract chunked consumers rely on: a fixed window of
        n samples starting at the flight delay is in bounds whenever
        extra_tail covers n - (len(x) + len(taps) - 1), and the
        in-bounds part is unchanged by the padding."""
        chan = Cm1Channel(20e9)
        real = chan.realize(3.0, np.random.default_rng(36))
        x = np.random.default_rng(37).normal(size=200)
        ring = len(x) + len(real.taps) - 1
        n = ring + 50  # listening window outruns the ringing
        d = real.delay_samples
        window = real.apply(x, extra_tail=n - ring)[d: d + n]
        assert len(window) == n
        assert np.array_equal(window[:ring], real.apply(x)[d:])
        assert np.all(window[ring:] == 0.0)
