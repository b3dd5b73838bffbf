"""Receiver band-pass filter (the ``BPF`` block of figure 1).

The energy-detection receiver band-limits the antenna signal before the
squarer; without it the squarer would fold the full front-end noise
bandwidth into the decision statistic.  A Butterworth band-pass designed
around the transmitted pulse's occupied band is used, with the band
derivable automatically from the pulse spectrum.
"""

from __future__ import annotations

import numpy as np
from scipy import signal as _signal

from repro.uwb.pulse import pulse_band, sampled_pulse


#: samples per block of an in-place :class:`BandPassFilter` pass.
OVERWRITE_BLOCK = 1 << 16


class BandPassFilter:
    """Butterworth band-pass applied with second-order sections.

    Args:
        band: (low, high) corner frequencies in Hz.
        fs: sample rate.
        order: filter order (per corner).
    """

    def __init__(self, band: tuple[float, float], fs: float, order: int = 4):
        low, high = band
        nyq = fs / 2.0
        if not 0.0 < low < high:
            raise ValueError("need 0 < low < high")
        if high >= nyq:
            raise ValueError("high corner must be below Nyquist")
        self.band = (float(low), float(high))
        self.fs = float(fs)
        self.order = int(order)
        self.sos = _signal.butter(order, [low / nyq, high / nyq],
                                  btype="bandpass", output="sos")

    @classmethod
    def for_pulse(cls, fs: float, tau: float, pulse_order: int = 5,
                  order: int = 4) -> "BandPassFilter":
        """Filter matched to the 6 dB band of the configured pulse."""
        pulse = sampled_pulse(fs, tau, pulse_order)
        low, high = pulse_band(pulse, fs, 6.0)
        low = max(low, 0.02 * fs / 2.0)
        high = min(high, 0.90 * fs / 2.0)
        return cls((low, high), fs, order=order)

    def __call__(self, x: np.ndarray, overwrite_x: bool = False
                 ) -> np.ndarray:
        """*x* filtered along its last axis.

        With *overwrite_x* a float64 vector *x* is filtered in place and
        returned: a block at a time, the filter state carried from block
        to block, so the output is bit-identical to one pass but no
        second array of *x*'s size is allocated.
        """
        if not overwrite_x:
            return _signal.sosfilt(self.sos, x, axis=-1)
        if x.ndim != 1 or x.dtype != np.float64:
            raise ValueError("overwrite_x needs a float64 vector")
        state = np.zeros((len(self.sos), 2))
        for start in range(0, len(x), OVERWRITE_BLOCK):
            block = x[start:start + OVERWRITE_BLOCK]
            block[:], state = _signal.sosfilt(self.sos, block, zi=state)
        return x
