"""Additive white Gaussian noise and Eb/N0 bookkeeping.

In a sampled simulation at rate ``fs``, white noise of two-sided PSD
``N0/2`` appears as i.i.d. Gaussian samples with variance
``sigma^2 = N0 * fs / 2`` - the standard waveform-level convention used
here and by the vectorized BER engine.
"""

from __future__ import annotations

import math


def noise_sigma_for_ebn0(eb: float, ebn0_db: float, fs: float) -> float:
    """Per-sample noise standard deviation for a target Eb/N0.

    Args:
        eb: received energy per bit (V^2 s).
        ebn0_db: target Eb/N0 in dB.
        fs: sample rate.
    """
    if eb <= 0:
        raise ValueError("energy per bit must be positive")
    n0 = eb / (10.0 ** (ebn0_db / 10.0))
    return math.sqrt(n0 * fs / 2.0)
