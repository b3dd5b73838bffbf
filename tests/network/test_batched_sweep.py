"""Bit-identity of the scenario-batched sweep engine.

The batched kernel (``repro.link.pipeline.run_ber_sweep``) runs every
(integrator, Eb/N0) cell of a campaign from one shared entropy stream:
victim bits, interferer bits and the unit noise wave are drawn once per
chunk and only the noise *scale* differs per scenario row.  Under the
repository's per-run seeding convention - every BER point starts from
a generator freshly seeded with the run seed - that is exactly the
draw sequence of the historic per-point loop, and each row's
arithmetic depends on its own noise scale only.  So a cell graded in
the batch, alone or in a sub-grid is the same computation bit for bit,
and at the pinned seeds cell ``(k, j)`` also counts exactly what that
loop counts at ``(integrators[k], grid[j])`` from a fresh generator,
in both fixed-n and adaptive modes.  The sweep is the
only BER engine, so the oracles here are independent of it: the
verbatim pre-refactor loop of ``test_pipeline_parity`` for
interferer-free cells, and counters recorded before the per-point path
was folded into the sweep for interferer cells.  Cached campaign
results and the committed BENCH artifacts are only valid if these
tests hold.
"""

import numpy as np
import pytest
from test_pipeline_parity import _legacy_simulate_ber_point

from repro.link import ops, pipeline as pipe
from repro.link.backends import (
    _CALIBRATION_MEMO,
    _REALIZATION_MEMO,
    build_channel_realization,
    build_integrator,
    calibrate,
)
from repro.link.pipeline import run_ber_sweep
from repro.link.spec import (
    ChannelSpec,
    FrontEndSpec,
    InterfererSpec,
    LinkSpec,
    NetworkSpec,
)
from repro.uwb.config import TEST_CONFIG
from repro.uwb.fastsim import AdaptiveStopping
from repro.uwb.integrator import IdealIntegrator
from repro.uwb.modulation import ppm_positions, ppm_waveform
from repro.uwb.pulse import sampled_pulse

BUDGET = dict(target_errors=40, max_bits=4_000, min_bits=1_000,
              chunk_bits=500)

#: fig6-convention link (BER drive, pulse-derived band-pass) on the
#: small test configuration.
SPEC = LinkSpec(config=TEST_CONFIG,
                frontend=FrontEndSpec(squarer_drive=0.05))

GRID = (2.0, 6.0, 10.0, 14.0)

#: ``(errors, bits)`` of the two-interferer network below over
#: ``GRID[:3]`` at seed 11, recorded from the per-point loop before it
#: became a 1x1 sweep (fixed-n and adaptive agree: every cell reaches
#: ``target_errors`` within ``min_bits``).
MUI_COUNTERS = [(326, 1000), (191, 1000), (68, 1000)]


def _pointwise(spec, grid, seed, adaptive=None, **budget):
    """The per-point oracle: the verbatim pre-refactor loop, each point
    from its own freshly seeded generator (the sharing convention the
    batched kernel exploits)."""
    cache = calibrate(spec)
    integrator = build_integrator(spec)
    return [_legacy_simulate_ber_point(
                spec.config, integrator, p, np.random.default_rng(seed),
                squarer_drive=spec.frontend.squarer_drive,
                adaptive=adaptive, _cache=cache, **budget)
            for p in grid]


class TestCurveParity:
    @pytest.mark.parametrize("adaptive", [None,
                                          AdaptiveStopping(ber_floor=1e-2)],
                             ids=["fixed-n", "adaptive"])
    def test_fig6_grid_matches_pointwise(self, adaptive):
        curve = ops.ber_curve(
            SPEC, GRID, np.random.default_rng(7), adaptive=adaptive,
            **BUDGET)
        expected = _pointwise(SPEC, GRID, 7, adaptive=adaptive,
                              **BUDGET)
        assert list(zip(curve.errors.tolist(),
                        curve.bits.tolist())) == expected

    def test_cm1_channel_grid_matches_pointwise(self):
        spec = LinkSpec(config=TEST_CONFIG,
                        channel=ChannelSpec(kind="cm1", distance=3.0))
        curve = ops.ber_curve(
            spec, GRID[:2], np.random.default_rng(3), **BUDGET)
        expected = _pointwise(spec, GRID[:2], 3, **BUDGET)
        assert list(zip(curve.errors.tolist(),
                        curve.bits.tolist())) == expected

    @pytest.mark.parametrize("adaptive", [None,
                                          AdaptiveStopping(ber_floor=1e-2)],
                             ids=["fixed-n", "adaptive"])
    def test_mui_grid_matches_pointwise(self, adaptive):
        slot = TEST_CONFIG.slot
        network = NetworkSpec(
            victim=SPEC,
            interferers=(
                InterfererSpec(rel_power_db=-6.0,
                               timing_offset=0.21 * slot),
                InterfererSpec(rel_power_db=-6.0,
                               timing_offset=0.41 * slot)))
        curve = ops.mui_ber_curve(
            network, GRID[:3], np.random.default_rng(11),
            adaptive=adaptive, **BUDGET)
        assert list(zip(curve.errors.tolist(),
                        curve.bits.tolist())) == MUI_COUNTERS
        point = ops.mui_ber_curve(
            network, GRID[1:2], np.random.default_rng(11),
            adaptive=adaptive, **BUDGET)
        assert (point.errors[0], point.bits[0]) == MUI_COUNTERS[1]

    def test_batched_default_when_serial(self):
        """A curve is the one-integrator batched sweep."""
        a = ops.ber_curve(
            SPEC, GRID[:2], np.random.default_rng(7), **BUDGET)
        b = ops.ber_sweep(
            SPEC, GRID[:2], np.random.default_rng(7),
            integrators=("ideal",), **BUDGET)["ideal"]
        assert np.array_equal(a.errors, b.errors)
        assert np.array_equal(a.bits, b.bits)


class TestMultiIntegratorSweep:
    def test_sweep_matches_standalone_curves(self):
        """One sweep over two integrators == two standalone batched
        curves: the shared front end changes nothing."""
        sweep = ops.ber_sweep(
            SPEC, GRID, np.random.default_rng(7),
            integrators=("ideal", "circuit"), **BUDGET)
        assert list(sweep) == ["ideal", "circuit"]
        for name in ("ideal", "circuit"):
            solo = ops.ber_curve(
                SPEC, GRID, np.random.default_rng(7), integrator=name,
                **BUDGET)
            assert np.array_equal(sweep[name].errors, solo.errors)
            assert np.array_equal(sweep[name].bits, solo.bits)

    def test_ops_ber_sweep_rejects_sweepless_backend(self):
        """There is one BER engine: a stale backend selection fails
        loudly instead of silently running the golden model."""
        with pytest.raises(TypeError, match="backend"):
            ops.ber_sweep(SPEC, GRID, np.random.default_rng(7),
                          backend="kernel")

    def test_kernel_curve_rejects_batch_points(self):
        """The knob is gone from every layer: a stale caller fails
        loudly instead of silently selecting nothing."""
        for op in (ops.ber_curve, ops.ber_sweep):
            with pytest.raises(TypeError, match="batch_points"):
                op(SPEC, (), np.random.default_rng(7),
                   batch_points=False)

    def test_sweep_label_validation(self):
        with pytest.raises(ValueError, match="labels"):
            ops.ber_sweep(SPEC, GRID, np.random.default_rng(7),
                          integrators=("ideal", "circuit"),
                          labels=("only-one",), **BUDGET)
        with pytest.raises(ValueError, match="duplicate"):
            ops.ber_sweep(SPEC, GRID, np.random.default_rng(7),
                          integrators=("ideal", "circuit"),
                          labels=("x", "x"), **BUDGET)


class TestRetirement:
    def test_resolved_cells_retire_without_perturbing_survivors(self):
        """Adaptive stopping drops resolved cells from the batch; the
        surviving cells' counters must equal their standalone runs
        (which never saw the retired scenarios at all)."""
        adaptive = AdaptiveStopping(ber_floor=1e-2)
        curve = ops.ber_curve(
            SPEC, GRID, np.random.default_rng(13), adaptive=adaptive,
            **BUDGET)
        standalone = _pointwise(SPEC, GRID, 13, adaptive=adaptive,
                                **BUDGET)
        # the policy actually retired something mid-sweep (low-SNR
        # cells resolve fast, deep-SNR cells keep the batch alive)...
        assert len(set(curve.bits.tolist())) > 1
        # ...and every cell still matches its solo run bit for bit.
        assert list(zip(curve.errors.tolist(),
                        curve.bits.tolist())) == standalone

    def test_grid_subset_is_a_row_subset(self):
        """Removing scenarios from the batch does not move the
        survivors: a sweep over a sub-grid equals the matching rows of
        the full-grid sweep."""
        full = ops.ber_curve(
            SPEC, GRID, np.random.default_rng(7), **BUDGET)
        sub = ops.ber_curve(
            SPEC, GRID[1:3], np.random.default_rng(7), **BUDGET)
        assert np.array_equal(sub.errors, full.errors[1:3])
        assert np.array_equal(sub.bits, full.bits[1:3])

    @pytest.mark.parametrize("name", ["ideal", "two_pole", "circuit"])
    def test_each_row_grades_alone(self, name):
        """A decision stage's row depends on its own noise scale only:
        slot values graded in a batch, a sub-batch or alone are bitwise
        equal (linear and nonlinear models alike)."""
        rng = np.random.default_rng(3)
        signal, noise = rng.normal(0.0, 0.05, (2, 37, 2, 64))
        sigmas = np.array([0.0, 0.3, 0.7, 1.1, 1.9])
        decider = pipe.DecisionStage(TEST_CONFIG, build_integrator(SPEC, name))
        batch = decider.slot_values(signal, noise, sigmas)
        sub = decider.slot_values(signal, noise, sigmas[1:4])
        assert np.array_equal(sub, batch[1:4])
        for row, sigma in zip(batch, sigmas):
            alone = decider.slot_values(signal, noise, sigma)
            assert np.array_equal(alone, row)


class TestValidation:
    @pytest.fixture
    def front(self, link_front):
        return link_front(TEST_CONFIG, calibrate(SPEC).bpf)

    @pytest.fixture
    def decider(self):
        return pipe.DecisionStage(TEST_CONFIG, IdealIntegrator(), None)

    @pytest.mark.parametrize("bad", [dict(chunk_bits=0),
                                     dict(max_bits=0),
                                     dict(min_bits=-1),
                                     dict(target_errors=0)])
    def test_nonsensical_budgets_raise(self, front, decider, bad):
        budget = dict(BUDGET)
        budget.update(bad)
        with pytest.raises(ValueError):
            run_ber_sweep([front], [decider], [np.array([1e-4])],
                          np.random.default_rng(0), **budget)

    def test_negative_sigma_raises(self, front, decider):
        for sigmas in ([1e-4, -1.0], [[1e-4]], [np.nan, 1e-4],
                       [1e-4, np.inf]):
            with pytest.raises(ValueError, match="sigmas"):
                run_ber_sweep([front], [decider], [np.array(sigmas)],
                              np.random.default_rng(0), **BUDGET)

    def test_empty_batch_returns_zero_counters(self, front, decider):
        ((errors, bits),) = run_ber_sweep([front], [decider], [np.zeros(0)],
                                          np.random.default_rng(0),
                                          **BUDGET)
        assert errors.shape == (1, 0) and bits.shape == (1, 0)

    def test_cli_rejects_nonsensical_chunk_bits(self, capsys):
        from repro.campaign.cli import build_parser

        parser = build_parser()
        for bad in ("0", "-3", "many"):
            with pytest.raises(SystemExit):
                parser.parse_args(["run", "fig6", "--chunk-bits", bad])
        args = parser.parse_args(["run", "fig6", "--chunk-bits", "250"])
        assert args.chunk_bits == 250
        capsys.readouterr()


class TestMemoization:
    def test_calibration_memoized_per_spec(self):
        _CALIBRATION_MEMO.clear()
        a = calibrate(SPEC)
        b = calibrate(SPEC)
        assert a is b
        other = calibrate(LinkSpec(
            config=TEST_CONFIG,
            channel=ChannelSpec(kind="cm1", distance=3.0)))
        assert other is not a

    def test_realization_memoized_on_seeded_path(self):
        _REALIZATION_MEMO.clear()
        spec = LinkSpec(config=TEST_CONFIG,
                        channel=ChannelSpec(kind="cm1", distance=3.0))
        a = build_channel_realization(spec)
        b = build_channel_realization(spec)
        assert a is b


class TestVectorizedPpmWaveform:
    @staticmethod
    def _legacy(symbols, config, amplitude=1.0):
        """Verbatim copy of the pre-vectorization per-pulse loop."""
        config.validate()
        pulse = sampled_pulse(config.fs, config.pulse_tau,
                              config.pulse_order)
        half = len(pulse) // 2
        total = len(symbols) * config.samples_per_symbol
        wave = np.zeros(total + len(pulse))
        for center in ppm_positions(symbols, config):
            wave[int(center):int(center) + len(pulse)] += \
                amplitude * pulse
        return wave[half:half + total]

    @pytest.mark.parametrize("amplitude", [1.0, 0.37])
    def test_disjoint_pulses_match_legacy(self, amplitude):
        rng = np.random.default_rng(5)
        symbols = rng.integers(0, 2, size=64).astype(np.int8)
        got = ppm_waveform(symbols, TEST_CONFIG, amplitude=amplitude)
        want = self._legacy(symbols, TEST_CONFIG, amplitude=amplitude)
        assert np.array_equal(got, want)

    def test_overlapping_pulses_match_legacy(self):
        """A pulse longer than the slot makes neighboring supports
        overlap - the scatter must accumulate like the loop did."""
        import dataclasses

        config = dataclasses.replace(TEST_CONFIG,
                                     pulse_tau=TEST_CONFIG.pulse_tau * 8)
        pulse = sampled_pulse(config.fs, config.pulse_tau,
                              config.pulse_order)
        assert len(pulse) > config.samples_per_slot  # really overlaps
        rng = np.random.default_rng(6)
        symbols = rng.integers(0, 2, size=32).astype(np.int8)
        got = ppm_waveform(symbols, config)
        want = self._legacy(symbols, config)
        assert np.array_equal(got, want)

    def test_empty_symbols(self):
        got = ppm_waveform(np.zeros(0, dtype=np.int8), TEST_CONFIG)
        assert got.shape == (0,)
