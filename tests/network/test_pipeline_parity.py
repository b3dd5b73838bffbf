"""The staged pipeline against the pre-refactor loop.

The staged ``repro.link.pipeline`` replaced the historic monolithic
chunk loop of the golden model, and a single operating point is now the
1x1 case of the batched sweep (``run_ber_point`` over the canonical
four-stage front and one decision stage).
``_legacy_simulate_ber_point`` below is a verbatim copy of the
pre-refactor loop, kept as the sweep's independent reference
implementation.  The pipeline draws the same
bits and noise but filters the clean waveform and the unit noise once
per chunk instead of the noisy waveform once per noise scale, so its
slot values agree with the loop's to rounding (``TestSlotValues``)
rather than bit for bit; at the pinned seeds no decision flips, and
every test of ``TestBitIdentity`` asserts exact equality of the
``(errors, bits)`` counters.
"""

import numpy as np
import pytest

from repro.link import ops
from repro.link.backends import _LinkCache
from repro.link.pipeline import (
    DecisionStage,
    _filtered_noise,
    run_ber_point,
)
from repro.link.spec import LinkSpec, NetworkSpec
from repro.uwb.adc import Adc
from repro.uwb.channel.awgn import noise_sigma_for_ebn0
from repro.uwb.channel.ieee802154a import Cm1Channel
from repro.uwb.config import TEST_CONFIG
from repro.uwb.fastsim import AdaptiveStopping
from repro.uwb.integrator import (
    CircuitSurrogateIntegrator,
    IdealIntegrator,
    TwoPoleIntegrator,
)
from repro.uwb.modulation import ppm_waveform, random_bits


def _legacy_simulate_ber_point(config, integrator, ebn0_db, rng, *,
                               channel=None, bpf=None,
                               squarer_drive=0.05, adc=None,
                               target_errors=100, max_bits=200_000,
                               min_bits=2_000, chunk_bits=1_000,
                               adaptive=None, _cache=None):
    """Verbatim copy of the pre-refactor monolithic chunk loop."""
    config.validate()
    cache = _cache or _LinkCache(config, channel, bpf)
    sigma = noise_sigma_for_ebn0(cache.eb, ebn0_db, config.fs)
    scale = squarer_drive / cache.peak

    n_sym = config.samples_per_symbol
    n_slot = config.samples_per_slot
    errors = 0
    bits_done = 0
    while bits_done < max_bits and (errors < target_errors
                                    or bits_done < min_bits):
        if (adaptive is not None and bits_done >= min_bits
                and adaptive.resolved(errors, bits_done)):
            break
        n = min(chunk_bits, max_bits - bits_done)
        bits = random_bits(n, rng)
        wave = ppm_waveform(bits, config)
        if cache.channel is not None:
            wave = cache.channel.apply(wave)[
                cache.channel.delay_samples:
                cache.channel.delay_samples + n * n_sym]
        noisy = wave + rng.normal(0.0, sigma, size=len(wave))
        filtered = cache.bpf(noisy)[:n * n_sym]
        driven = scale * filtered
        squared = np.square(driven).reshape(n, 2, n_slot)
        values = integrator.window_outputs(squared, config.dt)
        if adc is not None:
            values = adc.quantize(values)
        decided = (values[:, 1] > values[:, 0]).astype(np.int8)
        errors += int(np.count_nonzero(decided != bits))
        bits_done += n
    return errors, bits_done


def _staged_ber_point(link_front, config, integrator, ebn0_db, rng, *,
                      channel=None, adc=None, squarer_drive=0.05,
                      **rule):
    """The staged entry at one operating point: the canonical front
    and decision stage through the sweep's 1x1 case, sized from the
    same pilot."""
    cache = _LinkCache(config, channel, None)
    front = link_front(config, cache.bpf,
                       scale=squarer_drive / cache.peak,
                       channel=cache.channel)
    return run_ber_point(
        front, DecisionStage(config, integrator, adc),
        noise_sigma_for_ebn0(cache.eb, ebn0_db, config.fs), rng, **rule)


def _integrators():
    return [
        pytest.param(IdealIntegrator, id="ideal"),
        pytest.param(TwoPoleIntegrator, id="two_pole"),
        pytest.param(CircuitSurrogateIntegrator, id="surrogate"),
    ]


#: Relative slot-value bound of the nonlinear (circuit surrogate)
#: decider, which builds its rows in float32 and sums each window in
#: float64; measured at about 9e-8.  Linear models keep 1e-12.
FLOAT32_ROW_RTOL = 1e-6


BUDGET = dict(target_errors=40, max_bits=4_000, min_bits=1_000,
              chunk_bits=500)


def ber_point(spec, ebn0_db, rng, **budget):
    """``(errors, bits)`` of a one-point :func:`ops.ber_curve`."""
    curve = ops.ber_curve(spec, [ebn0_db], rng, **budget)
    return int(curve.errors[0]), int(curve.bits[0])


class TestBitIdentity:
    @pytest.mark.parametrize("integrator_cls", _integrators())
    @pytest.mark.parametrize("with_adc", [False, True],
                             ids=["no-adc", "adc"])
    @pytest.mark.parametrize("with_cm1", [False, True],
                             ids=["awgn", "cm1"])
    def test_counters_match_legacy(self, link_front, integrator_cls,
                                   with_adc, with_cm1):
        config = TEST_CONFIG
        integrator = integrator_cls()
        channel = None
        if with_cm1:
            channel = Cm1Channel(config.fs).realize(
                3.0, np.random.default_rng(42))
        adc = Adc(bits=5, vref=0.01) if with_adc else None
        for ebn0 in (4.0, 10.0):
            legacy = _legacy_simulate_ber_point(
                config, integrator, ebn0, np.random.default_rng(7),
                channel=channel, adc=adc, **BUDGET)
            staged = _staged_ber_point(
                link_front, config, integrator, ebn0,
                np.random.default_rng(7),
                channel=channel, adc=adc, **BUDGET)
            assert staged == legacy

    @pytest.mark.parametrize("ber_floor", [0.0, 1e-2])
    def test_adaptive_stopping_path_matches(self, link_front,
                                            ber_floor):
        """The adaptive early-exit decisions (and therefore the bit
        totals) are preserved chunk for chunk."""
        config = TEST_CONFIG
        adaptive = AdaptiveStopping(ber_floor=ber_floor)
        legacy = _legacy_simulate_ber_point(
            config, IdealIntegrator(), 12.0, np.random.default_rng(3),
            adaptive=adaptive, **BUDGET)
        staged = _staged_ber_point(
            link_front, config, IdealIntegrator(), 12.0,
            np.random.default_rng(3),
            adaptive=adaptive, **BUDGET)
        assert staged == legacy

    def test_backend_point_matches_legacy(self):
        """Spec-level entry: a one-point ops.ber_curve is the legacy
        loop for a plain LinkSpec."""
        spec = LinkSpec(config=TEST_CONFIG)
        staged = ber_point(
            spec, 8.0, np.random.default_rng(11), **BUDGET)
        legacy = _legacy_simulate_ber_point(
            TEST_CONFIG, IdealIntegrator(), 8.0,
            np.random.default_rng(11),
            squarer_drive=spec.frontend.squarer_drive, **BUDGET)
        assert staged == legacy

    def test_empty_network_degenerates_to_link(self):
        """NetworkSpec with no interferers is the victim link,
        bit for bit (the generator sees no extra draws)."""
        spec = LinkSpec(config=TEST_CONFIG)
        plain = ber_point(spec, 8.0, np.random.default_rng(5), **BUDGET)
        network = ber_point(NetworkSpec(victim=spec), 8.0,
                            np.random.default_rng(5), **BUDGET)
        assert network == plain


class TestSlotValues:
    @pytest.mark.parametrize("integrator_cls", _integrators())
    def test_slot_values_match_filtering_each_row(self, link_front,
                                                  integrator_cls):
        """On shared draws, every noise scale's slot values agree with
        band-passing ``waveform + sigma * unit`` row by row and
        integrating the full filter trajectory: within 1e-12 relative
        for linear models, :data:`FLOAT32_ROW_RTOL` for the surrogate's
        float32 rows."""
        config = TEST_CONFIG
        integrator = integrator_cls()
        rtol = 1e-12 if integrator.linear_weights(
            config.samples_per_slot, config.dt) is not None \
            else FLOAT32_ROW_RTOL
        cache = _LinkCache(config, None, None)
        scale = 0.05 / cache.peak
        sigmas = np.array([noise_sigma_for_ebn0(cache.eb, e, config.fs)
                           for e in (0.0, 6.0, 12.0)])
        n = 200
        front = link_front(config, cache.bpf, scale=scale)
        rng = np.random.default_rng(9)
        state = front.draw(n, rng, noise=False)
        front.process(state)
        values = DecisionStage(config, integrator).slot_values(
            state.signal, _filtered_noise(front, n, rng), sigmas)
        replay = np.random.default_rng(9)
        wave = ppm_waveform(random_bits(n, replay), config)
        unit = replay.standard_normal(wave.size)
        for row, sigma in zip(values, sigmas):
            squared = np.square(scale * cache.bpf(wave + sigma * unit))
            legacy = integrator.response(
                squared.reshape(n, 2, config.samples_per_slot),
                config.dt)[..., -1]
            np.testing.assert_allclose(row, legacy, rtol=rtol)
