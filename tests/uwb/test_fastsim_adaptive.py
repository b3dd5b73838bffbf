"""Adaptive Monte-Carlo stopping + Wilson bounds (fastsim)."""

import numpy as np
import pytest

from repro.link import ops
from repro.link.spec import LinkSpec
from repro.uwb.config import UwbConfig
from repro.uwb.fastsim import AdaptiveStopping, wilson_interval

FAST = UwbConfig(fs=8e9, symbol_period=16e-9, pulse_tau=0.225e-9,
                 pulse_order=5, integration_window=2e-9)
SPEC = LinkSpec(config=FAST)


def ber_point(ebn0_db, rng, **kwargs):
    curve = ops.ber_curve(SPEC, [ebn0_db], rng, **kwargs)
    return int(curve.errors[0]), int(curve.bits[0])


def ber_curve(grid, rng, **kwargs):
    return ops.ber_curve(SPEC, grid, rng, **kwargs)


class TestWilsonInterval:
    def test_brackets_the_estimate(self):
        lo, hi = wilson_interval(50, 1000)
        assert lo < 0.05 < hi

    def test_zero_errors_exact_lower_nonzero_upper(self):
        lo, hi = wilson_interval(0, 10_000)
        assert lo == 0.0
        assert 0.0 < hi < 1e-3

    def test_all_errors(self):
        lo, hi = wilson_interval(100, 100)
        assert hi == 1.0 and lo < 1.0

    def test_no_observations(self):
        assert wilson_interval(0, 0) == (0.0, 1.0)

    def test_narrows_with_bits(self):
        w = [wilson_interval(n // 10, n) for n in (100, 1000, 10_000)]
        widths = [hi - lo for lo, hi in w]
        assert widths == sorted(widths, reverse=True)

    def test_higher_confidence_is_wider(self):
        lo1, hi1 = wilson_interval(10, 1000, 0.9)
        lo2, hi2 = wilson_interval(10, 1000, 0.99)
        assert hi2 - lo2 > hi1 - lo1

    def test_validation(self):
        with pytest.raises(ValueError):
            wilson_interval(5, 4)
        with pytest.raises(ValueError):
            wilson_interval(-1, 4)
        with pytest.raises(ValueError):
            wilson_interval(1, 10, confidence=1.0)


class TestAdaptivePolicy:
    def test_precision_exit(self):
        policy = AdaptiveStopping(rel_half_width=0.5, min_errors=10)
        assert not policy.resolved(2, 100)        # too few errors
        assert policy.resolved(5000, 10_000)      # huge sample, tight CI
        assert not policy.resolved(0, 0)

    def test_floor_exit(self):
        policy = AdaptiveStopping(ber_floor=1e-3)
        assert not policy.resolved(0, 100)        # upper bound ~ 3.7e-2
        assert policy.resolved(0, 100_000)        # upper bound < 1e-3
        # disabled floor never fires on zero errors
        assert not AdaptiveStopping(ber_floor=0.0).resolved(0, 10**9)

    @pytest.mark.parametrize("bad", [
        dict(confidence=0.0), dict(confidence=1.0), dict(confidence=1.5),
        dict(confidence=float("nan")), dict(rel_half_width=0.0),
        dict(rel_half_width=-1.0), dict(rel_half_width=float("nan")),
        dict(min_errors=-1), dict(ber_floor=-1e-3), dict(ber_floor=1.0),
        dict(ber_floor=2.0), dict(ber_floor=float("nan"))])
    def test_nonsensical_fields_raise_at_construction(self, bad):
        """A bad field fails when the policy is built, not at the first
        ``resolved`` call in the middle of a sweep (``ber_floor=2``
        would stop every cell at ``min_bits``; a negative
        ``rel_half_width`` would never take the precision exit)."""
        (field,) = bad
        with pytest.raises(ValueError, match=field):
            AdaptiveStopping(**bad)

    def test_edge_fields_are_valid(self):
        policy = AdaptiveStopping(confidence=0.999, rel_half_width=1e-6,
                                  min_errors=0, ber_floor=0.0)
        assert not policy.resolved(0, 10)


class TestAdaptiveSimulation:
    BUDGET = dict(target_errors=10_000, max_bits=30_000, min_bits=1_000)

    def test_deep_snr_point_stops_early(self):
        rng = np.random.default_rng(3)
        e, b = ber_point(14.0, rng,
                         adaptive=AdaptiveStopping(ber_floor=1e-3),
                         **self.BUDGET)
        assert b < self.BUDGET["max_bits"]
        lo, hi = wilson_interval(e, b)
        assert hi < 1e-3 or e >= 8

    def test_fixed_rule_unchanged_without_policy(self):
        """adaptive=None bit-reproduces the historic stopping rule."""
        budget = dict(target_errors=15, max_bits=2000, min_bits=400)
        a = ber_point(8.0, np.random.default_rng(1), **budget)
        b = ber_point(8.0, np.random.default_rng(1), adaptive=None,
                      **budget)
        assert a == b

    def test_reproducible(self):
        policy = AdaptiveStopping(ber_floor=1e-3)
        runs = [ber_point(12.0, np.random.default_rng(9),
                          adaptive=policy, **self.BUDGET)
                for _ in range(2)]
        assert runs[0] == runs[1]

    def test_hard_caps_still_hold(self):
        e, b = ber_point(0.0, np.random.default_rng(2),
                         target_errors=5, max_bits=3000, min_bits=500,
                         adaptive=AdaptiveStopping(rel_half_width=1e-6))
        assert b <= 3000


class TestBerCurveBounds:
    BUDGET = dict(target_errors=15, max_bits=2000, min_bits=400)

    def test_curve_records_wilson_bounds(self):
        curve = ber_curve([4.0, 8.0], np.random.default_rng(3),
                          **self.BUDGET)
        assert curve.ci_low.shape == curve.ber.shape
        assert np.all(curve.ci_low <= curve.ber + 1e-12)
        assert np.all(curve.ber <= curve.ci_high + 1e-12)
        assert curve.confidence == 0.95

    def test_adaptive_curve_uses_policy_confidence(self):
        policy = AdaptiveStopping(confidence=0.99, ber_floor=1e-3)
        curve = ber_curve([8.0], np.random.default_rng(3),
                          adaptive=policy, **self.BUDGET)
        assert curve.confidence == 0.99

    def test_format_table_shows_bounds(self):
        curve = ber_curve([8.0], np.random.default_rng(3), **self.BUDGET)
        text = curve.format_table()
        assert "errors" in text and "[" in text


class TestWilsonZScore:
    """Memoized z-scores (hot-loop hygiene: wilson_interval runs after
    every adaptive Monte-Carlo chunk)."""

    def test_memoized_per_confidence(self, monkeypatch):
        from repro.uwb import fastsim

        calls = []
        inv_cdf = fastsim._inv_normal_cdf

        def counting_inv_cdf(p):
            calls.append(p)
            return inv_cdf(p)

        monkeypatch.setattr(fastsim, "_Z_SCORES", {})
        monkeypatch.setattr(fastsim, "_inv_normal_cdf", counting_inv_cdf)
        first = wilson_interval(3, 100, 0.8)
        assert 0.8 in fastsim._Z_SCORES
        # The memo serves the second call without another inverse-CDF
        # evaluation.
        assert wilson_interval(3, 100, 0.8) == first
        assert len(calls) == 1
