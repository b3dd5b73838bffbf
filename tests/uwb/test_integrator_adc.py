"""Integrator model family and ADC."""

import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.link.spec import FrontEndSpec
from repro.uwb.adc import Adc
from repro.uwb.config import UwbConfig
from repro.uwb.integrator import (
    CircuitSurrogateIntegrator,
    IdealIntegrator,
    SoftLimiter,
    TwoPoleIntegrator,
    tabulated_nonlinearity,
)

DT = 0.05e-9

#: window lengths of the fig6 link at DT: a whole slot (the BER sweep)
#: and the slot inside the default dump/hold gate (golden_packet).
SLOT = UwbConfig().samples_per_slot
GATED = SLOT - round(FrontEndSpec().t_dump / DT) - round(
    FrontEndSpec().t_hold / DT)


class TestIdeal:
    def test_window_sum(self):
        integ = IdealIntegrator(k=1e8)
        x = np.ones((3, 10)) * 0.5
        out = integ.window_outputs(x, DT)
        assert out == pytest.approx(np.full(3, 1e8 * 0.5 * 10 * DT))

    def test_response_cumulative(self):
        integ = IdealIntegrator(k=1e8)
        x = np.ones(5)
        resp = integ.response(x, DT)
        assert np.all(np.diff(resp) > 0)
        assert resp[-1] == pytest.approx(integ.window_outputs(x, DT))

    def test_default_k_matches_two_pole(self):
        assert IdealIntegrator().k == pytest.approx(
            TwoPoleIntegrator().ideal_k, rel=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            IdealIntegrator(k=-1.0)

    def test_state_consistency(self):
        """Streaming state and vectorized window agree."""
        integ = IdealIntegrator()
        rng = np.random.default_rng(0)
        x = rng.random(50)
        state = integ.make_state()
        for v in x:
            streaming = state.integrate(float(v), DT)
        vector = integ.window_outputs(x, DT)
        assert streaming == pytest.approx(vector, rel=0.05)


class TestTwoPole:
    def test_linear_regime_matches_ideal(self):
        two = TwoPoleIntegrator()
        ideal = IdealIntegrator(k=two.ideal_k)
        x = np.full((1, 100), 0.02)  # 5 ns window
        v2 = two.window_outputs(x, DT)[0]
        v1 = ideal.window_outputs(x, DT)[0]
        assert v2 == pytest.approx(v1, rel=0.1)

    def test_second_pole_smooths(self):
        """A lower fp2 suppresses a one-sample spike more."""
        spike = np.zeros((1, 40))
        spike[0, 20] = 1.0
        fast = TwoPoleIntegrator(fp2_hz=20e9).response(spike, DT)[0]
        slow = TwoPoleIntegrator(fp2_hz=1e9).response(spike, DT)[0]
        assert slow.max() < fast.max()

    def test_validation(self):
        with pytest.raises(ValueError):
            TwoPoleIntegrator(gain=-1.0)
        with pytest.raises(ValueError):
            TwoPoleIntegrator(fp1_hz=0.0)

    def test_filter_cache(self):
        two = TwoPoleIntegrator()
        assert two._filter(DT) is two._filter(DT)

    @pytest.mark.parametrize("n", [SLOT, GATED], ids=["slot", "gated"])
    @pytest.mark.parametrize("cls", [TwoPoleIntegrator,
                                     CircuitSurrogateIntegrator])
    def test_window_dot_is_the_filter_final_value(self, cls, n):
        """The weighted window sum equals the last sample of the full
        lfilter trajectory."""
        integ = cls()
        x = np.random.default_rng(4).normal(0.0, 0.1, (30, 2, n)) ** 2
        np.testing.assert_allclose(integ.window_outputs(x, DT),
                                   integ.response(x, DT)[..., -1],
                                   rtol=1e-12)

    def test_weights_memoized_and_dropped_from_pickles(self):
        """The memo is derived state: a used model pickles like a fresh
        one, so campaign content addresses do not depend on it."""
        two = TwoPoleIntegrator()
        fresh = pickle.dumps(two)
        g = two.weights(SLOT, DT)
        assert two.weights(SLOT, DT) is g
        assert not g.flags.writeable
        assert pickle.dumps(two) == fresh
        assert np.array_equal(
            pickle.loads(pickle.dumps(two)).weights(SLOT, DT), g)

    def test_linear_weights(self):
        """Linear models expose the weights of their window sum; an
        input nonlinearity withholds them."""
        x = np.random.default_rng(5).random((4, SLOT))
        for integ in (IdealIntegrator(), TwoPoleIntegrator()):
            np.testing.assert_allclose(
                x @ integ.linear_weights(SLOT, DT),
                integ.window_outputs(x, DT), rtol=1e-12)
        assert CircuitSurrogateIntegrator().linear_weights(SLOT, DT) \
            is None

    def test_state_matches_vectorized(self):
        two = TwoPoleIntegrator()
        rng = np.random.default_rng(1)
        x = np.abs(rng.normal(0.0, 0.02, 200))
        state = two.make_state()
        for v in x:
            streaming = state.integrate(float(v), DT)
        vector = two.window_outputs(x, DT)
        assert streaming == pytest.approx(vector, rel=0.05)

    @given(st.floats(1e5, 1e7), st.floats(1e9, 2e10))
    @settings(max_examples=10, deadline=None)
    def test_positive_input_positive_output(self, fp1, fp2):
        two = TwoPoleIntegrator(fp1_hz=fp1, fp2_hz=fp2)
        x = np.full((1, 60), 0.05)
        assert two.window_outputs(x, DT)[0] > 0


class TestSurrogate:
    def test_soft_limiter_arithmetic_unchanged(self):
        """One buffer, same operations: ``s * tanh(v / s)`` bit for bit,
        the input untouched, scalars in and out."""
        limiter = SoftLimiter(0.1)
        v = np.random.default_rng(6).normal(0.0, 0.2, 1000)
        before = v.copy()
        assert np.array_equal(limiter(v), 0.1 * np.tanh(v / 0.1))
        assert np.array_equal(v, before)
        assert limiter(0.05) == 0.1 * np.tanh(0.05 / 0.1)

    def test_soft_limiter_in_place(self):
        """``out=v`` computes the same values into *v*, in its dtype."""
        limiter = SoftLimiter(0.1)
        for dtype in (np.float64, np.float32):
            v = np.random.default_rng(6).normal(0.0, 0.2, 1000) \
                .astype(dtype)
            expected = limiter(v)
            assert expected.dtype == dtype
            assert limiter(v, out=v) is v
            assert np.array_equal(v, expected)

    def test_float32_windows_sum_in_float64(self):
        """The BER decider's float32 rows: the limiter runs in float32
        (in place when allowed), the window sum in float64, and a
        float64 window keeps its arithmetic bit for bit."""
        surr = CircuitSurrogateIntegrator()
        x = np.square(np.random.default_rng(2).normal(0.0, 0.3,
                                                      (3, 2, SLOT)))
        x32 = x.astype(np.float32)
        g = surr.weights(SLOT, DT)
        out = surr.window_outputs(x32, DT)
        assert out.dtype == np.float64
        limited = surr.input_nonlinearity(x32).astype(np.float64)
        np.testing.assert_allclose(out, limited @ g, rtol=1e-13)
        scratch = x32.copy()
        assert np.array_equal(
            surr.window_outputs(scratch, DT, overwrite_x=True), out)
        assert np.array_equal(surr.window_outputs(x, DT),
                              surr.input_nonlinearity(x) @ g)

    def test_compression_reduces_output(self):
        ideal = IdealIntegrator()
        surr = CircuitSurrogateIntegrator()
        small = np.full((1, 40), 0.01)
        large = np.full((1, 40), 0.40)
        # near-linear at small drive
        assert surr.window_outputs(small, DT)[0] == pytest.approx(
            ideal.window_outputs(small, DT)[0], rel=0.15)
        # strongly compressed at large drive
        assert surr.window_outputs(large, DT)[0] < 0.5 * \
            ideal.window_outputs(large, DT)[0]

    def test_compression_monotone(self):
        surr = CircuitSurrogateIntegrator()
        drives = [0.01, 0.05, 0.1, 0.2, 0.4]
        outs = [surr.window_outputs(np.full((1, 40), d), DT)[0]
                for d in drives]
        assert all(b > a for a, b in zip(outs, outs[1:]))

    def test_phase_labels(self):
        assert IdealIntegrator().phase == "II"
        assert CircuitSurrogateIntegrator().phase == "III"
        assert TwoPoleIntegrator().phase == "IV"
        assert "III" in CircuitSurrogateIntegrator().describe()


class TestTabulatedNonlinearity:
    def test_interpolation_and_clamp(self):
        fn = tabulated_nonlinearity(np.array([-1.0, 0.0, 1.0]),
                                    np.array([-0.5, 0.0, 0.5]))
        assert fn(0.5) == pytest.approx(0.25)
        assert fn(5.0) == pytest.approx(0.5)  # clamped
        assert fn(-5.0) == pytest.approx(-0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            tabulated_nonlinearity(np.array([0.0, 0.0]),
                                   np.array([0.0, 1.0]))
        with pytest.raises(ValueError):
            tabulated_nonlinearity(np.array([0.0, 1.0]),
                                   np.array([[0.0], [1.0]]))


class TestAdc:
    def test_codes(self):
        adc = Adc(bits=3, vref=1.0)
        assert adc.levels == 8
        assert adc.lsb == pytest.approx(0.125)
        assert adc.convert(0.0) == 0
        assert adc.convert(0.130) == 1
        assert adc.convert(2.0) == 7  # saturates

    def test_negative_clamped(self):
        adc = Adc(bits=3, vref=1.0)
        assert adc.convert(-0.5) == 0

    def test_array_conversion(self):
        adc = Adc(bits=4, vref=1.6)
        codes = adc.convert(np.array([0.0, 0.8, 1.59, 99.0]))
        assert list(codes) == [0, 8, 15, 15]

    def test_quantize_error_bound(self):
        adc = Adc(bits=6, vref=1.0)
        x = np.linspace(0.0, 1.0 - 1e-9, 100)
        err = np.abs(adc.quantize(x) - x)
        assert np.max(err) <= adc.lsb / 2 + 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            Adc(bits=0)
        with pytest.raises(ValueError):
            Adc(vref=-1.0)

    @given(st.integers(1, 12), st.floats(0.0, 1.0))
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_within_lsb(self, bits, frac):
        adc = Adc(bits=bits, vref=2.0)
        x = frac * (2.0 - 1e-9)
        assert abs(adc.quantize(x) - x) <= adc.lsb / 2 + 1e-12
