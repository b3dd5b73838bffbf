"""Receiver band-pass filter (the ``BPF`` block of figure 1).

The energy-detection receiver band-limits the antenna signal before the
squarer; without it the squarer would fold the full front-end noise
bandwidth into the decision statistic.  A Butterworth band-pass designed
around the transmitted pulse's occupied band is used, with the band
derivable automatically from the pulse spectrum.
"""

from __future__ import annotations

import numpy as np

from repro.core.iir import STREAM_BLOCK, SectionFilter, butter_bandpass
from repro.uwb.pulse import pulse_band, sampled_pulse


#: samples per streamed pass of a :class:`BandPassFilter`, in place or
#: not (the kernel's :data:`~repro.core.iir.STREAM_BLOCK`).
OVERWRITE_BLOCK = STREAM_BLOCK


class BandPassFilter:
    """Butterworth band-pass applied with second-order sections
    (:mod:`repro.core.iir` designs and runs them).

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
        self.sos = butter_bandpass(self.order, (low / nyq, high / nyq))
        self._kernel = SectionFilter.from_sos(self.sos)

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

        With *overwrite_x* a contiguous float64 vector *x* is filtered in
        place and returned.  Either way the kernel streams
        :data:`OVERWRITE_BLOCK` samples at a time, the filter state
        carried from pass to pass, so the in-place output is
        bit-identical to the other but no second array of *x*'s size is
        allocated.
        """
        if not overwrite_x:
            return self._kernel(x)[0]
        if (x.ndim != 1 or x.dtype != np.float64
                or not x.flags.c_contiguous):
            raise ValueError("overwrite_x needs a contiguous float64 vector")
        return self._kernel(x, out=x)[0]
