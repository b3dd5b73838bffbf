"""Sub-nanosecond UWB pulse shapes.

Impulse-radio UWB transmits carrier-less Gaussian-derivative pulses; the
derivative order and the shape parameter ``tau`` place the spectrum.  The
5th derivative with ``tau ~ 0.3 ns`` is a common choice that meets the
FCC indoor mask (3.1-10.6 GHz released in 2002, as the paper's
introduction recounts) without up-conversion.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import eval_hermite


def gaussian_derivative(t: np.ndarray, tau: float, order: int = 5
                        ) -> np.ndarray:
    """The *order*-th derivative of a Gaussian, peak-normalized.

    Args:
        t: time axis centered on the pulse (s).
        tau: Gaussian width parameter (s).
        order: derivative order >= 0.

    Returns:
        Samples of ``d^n/dt^n exp(-t^2 / (2 tau^2))`` normalized to a
        unit peak magnitude.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    if order < 0:
        raise ValueError("order must be >= 0")
    x = np.asarray(t, dtype=float) / tau
    # d^n/dt^n e^{-x^2/2} = (-1)^n He_n(x) e^{-x^2/2} / tau^n with the
    # probabilists' Hermite polynomial He_n; physicists' H_n(x/sqrt(2))
    # relates by He_n(x) = 2^{-n/2} H_n(x / sqrt 2).
    hermite = eval_hermite(order, x / math.sqrt(2.0)) * 2.0 ** (-order / 2.0)
    pulse = (-1.0) ** order * hermite * np.exp(-0.5 * x * x)
    peak = np.max(np.abs(pulse))
    if peak == 0.0:
        raise ValueError("time axis does not cover the pulse")
    return pulse / peak


def sampled_pulse(fs: float, tau: float, order: int = 5) -> np.ndarray:
    """A centered, peak-normalized pulse sampled at *fs*.

    The support spans ``+/- 6 tau``; an odd number of samples keeps the
    pulse symmetric around its array center.
    """
    if fs <= 0:
        raise ValueError("fs must be positive")
    half = max(1, int(math.ceil(6.0 * tau * fs)))
    t = np.arange(-half, half + 1) / fs
    return gaussian_derivative(t, tau, order)


def pulse_energy(pulse: np.ndarray, fs: float) -> float:
    """Continuous-time energy of a sampled pulse: ``sum(p^2) / fs``."""
    return float(np.sum(np.square(pulse)) / fs)


def pulse_psd(pulse: np.ndarray, fs: float, nfft: int = 1 << 14
              ) -> tuple[np.ndarray, np.ndarray]:
    """One-sided energy spectral density of a pulse.

    Returns:
        ``(freqs, esd)`` with esd in V^2 s / Hz.
    """
    spectrum = np.fft.rfft(pulse, n=nfft) / fs
    freqs = np.fft.rfftfreq(nfft, d=1.0 / fs)
    esd = 2.0 * np.abs(spectrum) ** 2
    return freqs, esd


def fcc_indoor_mask_dbm_per_mhz(freqs: np.ndarray) -> np.ndarray:
    """FCC Part-15 indoor UWB EIRP mask in dBm/MHz versus frequency."""
    f_ghz = np.asarray(freqs, dtype=float) / 1e9
    mask = np.full_like(f_ghz, -41.3)
    mask[f_ghz < 0.96] = -41.3
    mask[(f_ghz >= 0.96) & (f_ghz < 1.61)] = -75.3
    mask[(f_ghz >= 1.61) & (f_ghz < 1.99)] = -53.3
    mask[(f_ghz >= 1.99) & (f_ghz < 3.1)] = -51.3
    mask[(f_ghz >= 3.1) & (f_ghz <= 10.6)] = -41.3
    mask[f_ghz > 10.6] = -51.3
    return mask


def pulse_band(pulse: np.ndarray, fs: float,
               drop_db: float) -> tuple[float, float]:
    """Occupied band of a pulse: the lowest and highest frequencies
    within *drop_db* dB of the spectral peak."""
    freqs, esd = pulse_psd(pulse, fs)
    esd_db = 10.0 * np.log10(np.maximum(esd, 1e-300))
    above = np.nonzero(esd_db >= np.max(esd_db) - drop_db)[0]
    return float(freqs[above[0]]), float(freqs[above[-1]])


def fractional_bandwidth(pulse: np.ndarray, fs: float) -> float:
    """Fractional bandwidth ``2 (fh - fl) / (fh + fl)`` at 10 dB below
    the spectral peak (FCC defines UWB as > 0.20, or > 500 MHz
    absolute)."""
    f_low, f_high = pulse_band(pulse, fs, 10.0)
    if f_high + f_low == 0:
        return 0.0
    return 2.0 * (f_high - f_low) / (f_high + f_low)
