"""The NumPy-only special functions against ``scipy.special``.

``repro`` itself never imports SciPy at module level; these tests do,
as the independent reference: the Hermite polynomial behind every
pulse must equal ``eval_hermite`` bit for bit, and the Wilson z-score
must stay within a few ulp of ``ndtri``.
"""

import math

import numpy as np
import pytest
from scipy.special import eval_hermite, ndtri

from repro.link.equivalence import DEFAULT_SPEC
from repro.uwb import fastsim
from repro.uwb.config import TEST_CONFIG, UwbConfig
from repro.uwb.pulse import hermite, sampled_pulse

#: the experiments' pulse configurations and the tests' TEST_CONFIG.
CONFIGS = {"default": UwbConfig(), "test": TEST_CONFIG,
           "equivalence": DEFAULT_SPEC.config}


def pulse_x(config: UwbConfig) -> np.ndarray:
    """The normalized time axis ``t / tau`` of :func:`sampled_pulse`."""
    half = max(1, int(math.ceil(6.0 * config.pulse_tau * config.fs)))
    t = np.arange(-half, half + 1) / config.fs
    return t / config.pulse_tau


def reference_pulse(config: UwbConfig) -> np.ndarray:
    """:func:`sampled_pulse` with SciPy's Hermite polynomial."""
    order = config.pulse_order
    x = pulse_x(config)
    he = eval_hermite(order, x / math.sqrt(2.0)) * 2.0 ** (-order / 2.0)
    pulse = (-1.0) ** order * he * np.exp(-0.5 * x * x)
    return pulse / np.max(np.abs(pulse))


class TestHermite:
    @pytest.mark.parametrize("order", range(10))
    def test_random_axes_equal_scipy(self, order):
        rng = np.random.default_rng(order)
        x = np.concatenate([rng.normal(0.0, 3.0, 20_000),
                            rng.uniform(-30.0, 30.0, 20_000)])
        assert np.array_equal(hermite(order, x), eval_hermite(order, x))

    @pytest.mark.parametrize("order", range(10))
    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_pulse_axes_equal_scipy(self, name, order):
        x = pulse_x(CONFIGS[name]) / math.sqrt(2.0)
        assert np.array_equal(hermite(order, x), eval_hermite(order, x))

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_pulses_in_use_equal_scipy(self, name):
        config = CONFIGS[name]
        assert np.array_equal(
            sampled_pulse(config.fs, config.pulse_tau, config.pulse_order),
            reference_pulse(config))


#: ulp between ``NormalDist().inv_cdf`` and ``ndtri`` at the levels
#: below, as measured on CPython 3.11: 2, 3, 2, 1, 1 (``ndtri`` itself
#: is 1 ulp off the exact quantile at 0.8, 0.95 and 0.9999).
Z_ULPS = 3


class TestNormalQuantile:
    @pytest.mark.parametrize("confidence", [0.8, 0.9, 0.95, 0.99, 0.9999])
    def test_z_score_within_ulps_of_ndtri(self, confidence, monkeypatch):
        monkeypatch.setattr(fastsim, "_Z_SCORES", {})
        z = fastsim._wilson_z(confidence)
        ref = float(ndtri(0.5 + confidence / 2.0))
        assert abs(z - ref) <= Z_ULPS * math.ulp(ref)
