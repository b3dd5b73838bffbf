"""Behavioral ODE states against analytic responses."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ams.equations import (
    GatedIntegratorState,
    OnePoleState,
    TwoPoleGatedIntegratorState,
)


class TestOnePole:
    def test_step_response(self):
        pole = 1e6
        lp = OnePoleState(pole, gain=2.0)
        dt = 1e-9
        tau = 1.0 / (2 * math.pi * pole)
        steps = int(3 * tau / dt)
        y = 0.0
        for _ in range(steps):
            y = lp.update(1.0, dt)
        assert y == pytest.approx(2.0 * (1 - math.exp(-3.0)), rel=1e-2)

    def test_dc_gain(self):
        lp = OnePoleState(1e6, gain=3.0)
        for _ in range(10000):
            y = lp.update(0.5, 1e-8)
        assert y == pytest.approx(1.5, rel=1e-3)

    def test_reset(self):
        lp = OnePoleState(1e6)
        lp.update(1.0, 1e-9)
        lp.reset()
        assert lp.y == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            OnePoleState(0.0)

    @given(gain=st.floats(0.1, 10.0), x=st.floats(-1.0, 1.0))
    @settings(max_examples=20, deadline=None)
    def test_settles_to_gain_times_input(self, gain, x):
        lp = OnePoleState(1e6, gain=gain)
        for _ in range(5000):
            y = lp.update(x, 1e-8)
        assert y == pytest.approx(gain * x, rel=1e-3, abs=1e-9)


class TestGatedIntegrator:
    def test_constant_input_ramp(self):
        state = GatedIntegratorState(k=1e8)
        dt = 1e-9
        for _ in range(100):
            out = state.integrate(0.5, dt)
        assert out == pytest.approx(1e8 * 0.5 * 100e-9, rel=1e-2)

    def test_hold_freezes(self):
        state = GatedIntegratorState(k=1e8)
        state.integrate(1.0, 1e-9)
        held = state.hold()
        assert state.hold() == held

    def test_dump_resets(self):
        state = GatedIntegratorState(k=1e8)
        state.integrate(1.0, 1e-9)
        assert state.dump() == 0.0
        assert state.vo == 0.0


class TestTwoPoleGated:
    def test_matches_ideal_for_short_windows(self):
        """Integration windows << 1/fp1: the two-pole model tracks the
        equivalent ideal integrator within a few percent."""
        gain, fp1, fp2 = 12.3, 0.886e6, 5.895e9
        k = gain * 2 * math.pi * fp1
        two = TwoPoleGatedIntegratorState(gain, fp1, fp2)
        ideal = GatedIntegratorState(k)
        dt = 0.05e-9
        for _ in range(400):  # 20 ns window
            v2 = two.integrate(0.05, dt)
            v1 = ideal.integrate(0.05, dt)
        assert v2 == pytest.approx(v1, rel=0.1)

    def test_droop_for_long_windows(self):
        """Windows comparable to 1/fp1 droop below the ideal ramp."""
        gain, fp1 = 12.3, 0.886e6
        k = gain * 2 * math.pi * fp1
        two = TwoPoleGatedIntegratorState(gain, fp1, 5.9e9)
        ideal = GatedIntegratorState(k)
        dt = 1e-9
        for _ in range(400):  # 400 ns >> tau1 = 180 ns
            v2 = two.integrate(0.05, dt)
            v1 = ideal.integrate(0.05, dt)
        assert v2 < 0.8 * v1

    def test_dump_and_hold(self):
        two = TwoPoleGatedIntegratorState(12.3, 1e6, 1e9)
        two.integrate(0.1, 1e-9)
        held = two.hold()
        assert two.hold() == held
        assert two.dump() == 0.0

    def test_input_nonlinearity_applied(self):
        limited = TwoPoleGatedIntegratorState(
            12.3, 1e6, 1e9, input_nonlinearity=lambda v: min(v, 0.1))
        free = TwoPoleGatedIntegratorState(12.3, 1e6, 1e9)
        for _ in range(100):
            v_lim = limited.integrate(0.5, 1e-9)
            v_free = free.integrate(0.5, 1e-9)
        assert v_lim < 0.25 * v_free
