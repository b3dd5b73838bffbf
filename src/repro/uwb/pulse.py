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


def hermite(n: int, x: np.ndarray) -> np.ndarray:
    """The physicists' Hermite polynomial ``H_n(x)``.

    Operation for operation SciPy's ``eval_hermite``: the backward
    recurrence of the probabilists' ``He_n`` at ``sqrt(2) x``, scaled by
    ``2^(n/2)``, so every pulse equals SciPy's bit for bit.
    """
    y = math.sqrt(2.0) * np.asarray(x, dtype=float)
    if n == 0:
        he = np.ones_like(y)
    else:
        y3, y2 = 0.0, 1.0
        for k in range(n, 1, -1):
            y3, y2 = y2, y * y2 - k * y3
        he = y * y2 - y3
    return he * 2.0 ** (n / 2.0)


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
    he_n = hermite(order, x / math.sqrt(2.0)) * 2.0 ** (-order / 2.0)
    pulse = (-1.0) ** order * he_n * np.exp(-0.5 * x * x)
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


def pulse_psd(pulse: np.ndarray, fs: float) -> tuple[np.ndarray, np.ndarray]:
    """One-sided energy spectral density of a pulse, on the grid of a
    zero-padded 2^14-point FFT.

    Returns:
        ``(freqs, esd)`` with esd in V^2 s / Hz.
    """
    nfft = 1 << 14
    spectrum = np.fft.rfft(pulse, n=nfft) / fs
    freqs = np.fft.rfftfreq(nfft, d=1.0 / fs)
    esd = 2.0 * np.abs(spectrum) ** 2
    return freqs, esd


def pulse_band(pulse: np.ndarray, fs: float,
               drop_db: float) -> tuple[float, float]:
    """Occupied band of a pulse: the lowest and highest frequencies
    within *drop_db* dB of the spectral peak."""
    freqs, esd = pulse_psd(pulse, fs)
    esd_db = 10.0 * np.log10(np.maximum(esd, 1e-300))
    above = np.nonzero(esd_db >= np.max(esd_db) - drop_db)[0]
    return float(freqs[above[0]]), float(freqs[above[-1]])
