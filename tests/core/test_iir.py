"""The NumPy-only IIR module against SciPy's filter functions.

``repro`` itself never imports ``scipy.signal``; these tests do, as the
independent reference: the Butterworth design and the bilinear
transform must equal SciPy's bit for bit, and the block kernel must
stay within 1e-13 of the peak of ``sosfilt``/``lfilter``.
"""

import pickle
import threading

import numpy as np
import pytest
from scipy import signal

from repro.ams.equations import OnePoleState
from repro.core.iir import (
    BLOCK,
    STREAM_BLOCK,
    SectionFilter,
    bilinear,
    butter_bandpass,
)
from repro.experiments.fig6_ber import WIDE_FRONT_END
from repro.link.backends import build_bpf
from repro.link.spec import LinkSpec
from repro.uwb.bpf import BandPassFilter
from repro.uwb.config import TEST_CONFIG, UwbConfig
from repro.uwb.integrator import TwoPoleIntegrator

#: the kernel's error bound, relative to the reference output's peak.
TOL = 1e-13

#: every band-pass the experiments build.
BANDS = {
    "fig6": lambda: BandPassFilter(WIDE_FRONT_END, UwbConfig().fs),
    "for_pulse-default": lambda: BandPassFilter.for_pulse(
        UwbConfig().fs, UwbConfig().pulse_tau, UwbConfig().pulse_order),
    "for_pulse-test": lambda: BandPassFilter.for_pulse(
        TEST_CONFIG.fs, TEST_CONFIG.pulse_tau, TEST_CONFIG.pulse_order),
    "table1": lambda: build_bpf(LinkSpec(config=UwbConfig())),
}


def reference_sos(bpf: BandPassFilter) -> np.ndarray:
    nyq = bpf.fs / 2.0
    low, high = bpf.band
    return signal.butter(bpf.order, [low / nyq, high / nyq],
                         btype="bandpass", output="sos")


def assert_close(y, ref):
    assert np.max(np.abs(y - ref)) <= TOL * np.max(np.abs(ref))


class TestDesign:
    @pytest.mark.parametrize("name", sorted(BANDS))
    def test_bands_in_use_equal_scipy(self, name):
        bpf = BANDS[name]()
        assert np.array_equal(bpf.sos, reference_sos(bpf))

    @pytest.mark.parametrize("order", range(1, 8))
    def test_random_bands_equal_scipy(self, order):
        """Random bands, and two wide enough that an odd order has a
        pair of real poles."""
        rng = np.random.default_rng(order)
        bands = np.sort(rng.uniform(0.001, 0.999, (50, 2)))
        for low, high in [*bands, (0.005, 0.99), (0.01, 0.6)]:
            assert np.array_equal(
                butter_bandpass(order, (low, high)),
                signal.butter(order, [low, high], btype="bandpass",
                              output="sos"))

    @pytest.mark.parametrize("wn", [(0.0, 0.5), (0.5, 0.4), (0.2, 1.0)])
    def test_rejects_bad_bands(self, wn):
        with pytest.raises(ValueError):
            butter_bandpass(4, wn)

    @pytest.mark.parametrize("fs", [8e9, 20e9, 1e12])
    def test_bilinear_equals_scipy(self, fs):
        w1, w2 = 2 * np.pi * 0.886e6, 2 * np.pi * 5.895e9
        num, den = [11.2 * w1 * w2], [1.0, w1 + w2, w1 * w2]
        for ours, ref in zip(bilinear(num, den, fs),
                             signal.bilinear(num, den, fs=fs)):
            assert np.array_equal(ours, ref)


@pytest.fixture(scope="module")
def bpf():
    return BANDS["fig6"]()


class TestKernel:
    @pytest.mark.parametrize("n", [1, 7, BLOCK - 1, BLOCK, BLOCK + 1,
                                   65_537, 320_000,
                                   2 * STREAM_BLOCK + 7])
    def test_sos_matches_sosfilt(self, bpf, n):
        x = np.random.default_rng(n).standard_normal(n)
        y, zf = SectionFilter.from_sos(bpf.sos)(x)
        ref, ref_zf = signal.sosfilt(bpf.sos, x, zi=np.zeros((4, 2)))
        assert_close(y, ref)
        assert np.allclose(zf, ref_zf.ravel(), rtol=0.0,
                           atol=TOL * np.max(np.abs(ref)))

    def test_rows_along_the_last_axis(self, bpf):
        x = np.random.default_rng(1).standard_normal((3, 2, 1001))
        y, zf = SectionFilter.from_sos(bpf.sos)(x)
        assert y.shape == x.shape and zf.shape == (3, 2, 8)
        assert_close(y, signal.sosfilt(bpf.sos, x, axis=-1))

    def test_streaming_carries_the_state(self, bpf):
        x = np.random.default_rng(2).standard_normal(100_003)
        kernel = SectionFilter.from_sos(bpf.sos)
        out, state = np.empty_like(x), None
        for start in range(0, len(x), 9_999):
            out[start:start + 9_999], state = kernel(
                x[start:start + 9_999], state)
        assert_close(out, signal.sosfilt(bpf.sos, x))

    def test_ba_with_initial_state_matches_lfilter(self):
        b, a = TwoPoleIntegrator()._filter(0.05e-9).sections[0]
        rng = np.random.default_rng(3)
        x = rng.standard_normal((4, 333))
        zi = rng.standard_normal((4, 2))
        y, zf = SectionFilter([(b, a)])(x, zi)
        ref, ref_zf = signal.lfilter(b, a, x, axis=-1, zi=zi)
        assert_close(y, ref)
        assert np.allclose(zf, ref_zf, rtol=0.0,
                           atol=TOL * np.max(np.abs(ref)))

    def test_in_place(self, bpf):
        x = np.random.default_rng(4).standard_normal(70_001)
        expected = SectionFilter.from_sos(bpf.sos)(x)[0]
        out, _ = SectionFilter.from_sos(bpf.sos)(x, out=x)
        assert out is x and np.array_equal(x, expected)

    def test_rejects_an_unusable_out(self, bpf):
        kernel = SectionFilter.from_sos(bpf.sos)
        with pytest.raises(ValueError, match="out must be"):
            kernel(np.zeros(8), out=np.zeros(8, dtype=np.float32))

    def test_threads_share_one_filter(self, bpf):
        """The block matrices are read-only and every call has its own
        work arrays: concurrent calls give the serial results."""
        kernel = SectionFilter.from_sos(bpf.sos)
        inputs = [np.random.default_rng(s).standard_normal(200_000)
                  for s in range(4)]
        serial = [kernel(x)[0] for x in inputs]
        assert not kernel._gemm.flags.writeable
        results = [None] * len(inputs)

        def run(i):
            results[i] = kernel(inputs[i])[0]

        threads = [threading.Thread(target=run, args=(i,))
                   for i in range(len(inputs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
        for ours, ref in zip(results, serial):
            assert np.array_equal(ours, ref)

    def test_pickles_carry_only_the_coefficients(self, bpf):
        kernel = SectionFilter.from_sos(bpf.sos)
        blob = pickle.dumps(kernel)
        assert len(blob) < 2_000
        again = pickle.loads(blob)
        x = np.random.default_rng(5).standard_normal(1_000)
        assert np.array_equal(again(x)[0], kernel(x)[0])


class TestCallSites:
    def test_two_pole_weights_match_lfilter(self):
        two = TwoPoleIntegrator()
        dt = 0.05e-9
        b, a = signal.bilinear(
            [two.gain * 2 * np.pi * two.fp1_hz * 2 * np.pi * two.fp2_hz],
            [1.0, 2 * np.pi * (two.fp1_hz + two.fp2_hz),
             (2 * np.pi) ** 2 * two.fp1_hz * two.fp2_hz], fs=1 / dt)
        impulse = np.zeros(160)
        impulse[0] = 1.0
        ref = signal.lfilter(b, a, impulse)[::-1]
        assert_close(two.weights(160, dt), ref)
        x = np.random.default_rng(6).standard_normal((5, 160))
        assert_close(two.response(x, dt),
                     signal.lfilter(b, a, x, axis=-1))

    def test_one_pole_update_block_matches_lfilter(self):
        state = OnePoleState(0.886e6, gain=2.0)
        dt = 0.05e-9
        state.update(0.3, dt)
        y0, x0 = state.y, state._x_prev
        x = np.random.default_rng(7).standard_normal(81)
        ours = state.update_block(x, dt)
        a = state.tau / dt
        c1, b0 = (a - 0.5) / (a + 0.5), 0.5 * state.gain / (a + 0.5)
        ref, _ = signal.lfilter([b0, b0], [1.0, -c1], x,
                                zi=[b0 * x0 + c1 * y0])
        assert_close(ours, ref)
        assert state.y == ours[-1] and state._x_prev == x[-1]
