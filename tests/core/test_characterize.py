"""Phase-IV extraction: two-pole fit and nonlinearity measurement."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.characterize import (
    TwoPoleFit,
    build_surrogate,
    extract_nonlinearity,
    fit_two_pole,
)
from repro.uwb.integrator import CircuitSurrogateIntegrator


def synth_two_pole(gain, fp1, fp2, freqs):
    return (20 * np.log10(gain)
            - 10 * np.log10(1 + (freqs / fp1) ** 2)
            - 10 * np.log10(1 + (freqs / fp2) ** 2))


class TestFit:
    def test_recovers_synthetic(self):
        freqs = np.logspace(2, 11, 120)
        mag = synth_two_pole(12.3, 0.886e6, 5.895e9, freqs)
        fit = fit_two_pole(freqs, mag)
        assert fit.gain == pytest.approx(12.3, rel=1e-3)
        assert fit.fp1_hz == pytest.approx(0.886e6, rel=1e-2)
        assert fit.fp2_hz == pytest.approx(5.895e9, rel=1e-2)
        assert fit.rms_error_db < 1e-3
        assert fit.gain_db == pytest.approx(21.8, abs=0.1)

    @given(gain=st.floats(2.0, 50.0),
           fp1=st.floats(1e5, 1e7),
           ratio=st.floats(1e2, 1e4))
    @settings(max_examples=15, deadline=None)
    def test_recovers_random_parameters(self, gain, fp1, ratio):
        fp2 = fp1 * ratio
        freqs = np.logspace(2, 11, 100)
        mag = synth_two_pole(gain, fp1, fp2, freqs)
        fit = fit_two_pole(freqs, mag)
        assert fit.gain == pytest.approx(gain, rel=0.05)
        assert fit.fp1_hz == pytest.approx(fp1, rel=0.1)

    def test_poles_ordered(self):
        freqs = np.logspace(2, 11, 80)
        mag = synth_two_pole(10.0, 1e6, 1e9, freqs)
        fit = fit_two_pole(freqs, mag)
        assert fit.fp1_hz <= fit.fp2_hz

    def test_magnitude_model(self):
        fit = TwoPoleFit(gain=10.0, fp1_hz=1e6, fp2_hz=1e9,
                         rms_error_db=0.0)
        mags = fit.magnitude_db([1e3, 1e6])
        assert mags[0] == pytest.approx(20.0, abs=0.01)
        assert mags[1] == pytest.approx(17.0, abs=0.05)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            fit_two_pole([1.0, 2.0], [0.0, 0.0])


class TestCircuitExtraction:
    def test_nonlinearity_shape(self, id_design):
        vin, f_of_vin, gain0 = extract_nonlinearity(id_design,
                                                    v_max=0.2, points=17)
        assert gain0 > 5.0
        # odd-ish characteristic through the origin
        mid = len(vin) // 2
        assert abs(f_of_vin[mid]) < 5e-3
        # monotone
        assert np.all(np.diff(f_of_vin) > 0)

    def test_build_surrogate(self, id_design):
        surrogate = build_surrogate(id_design)
        assert isinstance(surrogate, CircuitSurrogateIntegrator)
        # carries the measured fit
        assert 0.4e6 < surrogate.fp1_hz < 2e6
        assert 15 < 20 * np.log10(surrogate.gain) < 25
        # measured nonlinearity compresses large inputs
        x = np.full((1, 40), 0.3)
        small = np.full((1, 40), 0.01)
        dt = 0.05e-9
        gain_large = surrogate.window_outputs(x, dt)[0] / 0.3
        gain_small = surrogate.window_outputs(small, dt)[0] / 0.01
        assert gain_large < 0.7 * gain_small
