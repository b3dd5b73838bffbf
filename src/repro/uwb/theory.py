"""Exact bit-error rate of the 2-PPM energy detector on AWGN.

With the ideal integrator the decision of one symbol compares the
band-passed, squared signal integrated over the two slots,

    D = sum_{slot 1} y^2 - sum_{slot 0} y^2,    y = H (w + sigma u),

where ``H`` is the band-pass convolution matrix, ``w`` the clean pulse
train and ``u`` white unit-variance noise; the receiver decides 1 when
``D > 0``.  ``D = x' M x`` with ``M = H' A H`` and ``A = diag(-1, +1)``
over the slots is a quadratic form in the Gaussian vector ``x = w +
sigma u``, so ``P(D > 0)`` is exact by Imhof's method (J. P. Imhof,
"Computing the distribution of quadratic forms in normal variables",
*Biometrika* 48:419-426, 1961): eigen-decompose ``M`` once, then each
(Eb/N0, bit pattern) is one 1-D integral.  Drive scaling and the
integration constant multiply ``D`` by a positive number and drop out.

The symbol is conditioned on :data:`HISTORY` preceding symbols, enough
for the band-pass ringing to die out; the BER averages every
equiprobable pattern.  Energy per bit and noise scale follow the golden model's
conventions (noiseless filtered pilot of slot-0 pulses; per-sample
variance ``N0 fs / 2``) but share no code with its Monte-Carlo loop:
this module builds on the band-pass sections (run through
:class:`repro.core.iir.SectionFilter`, which the tests check against
SciPy's ``sosfilt``) and the pulse train only, so it can judge a kernel
that rounds differently.

Scope: the ideal integrator, no converter, no channel, no interferers.
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.core.iir import SectionFilter
from repro.obs import trace as _trace
from repro.uwb.bpf import BandPassFilter
from repro.uwb.config import UwbConfig
from repro.uwb.modulation import ppm_waveform

#: pilot length (bits) of the energy-per-bit convention.
PILOT_BITS = 8

#: preceding symbols a decision is conditioned on.
HISTORY = 2


def pilot_energy(config: UwbConfig, bpf: BandPassFilter) -> float:
    """Received energy per bit: a noiseless pilot of slot-0 pulses
    through the band-pass, truncated to whole symbols."""
    n = PILOT_BITS * config.samples_per_symbol
    pilot = ppm_waveform(np.zeros(PILOT_BITS, dtype=np.int8), config)
    filtered = SectionFilter.from_sos(bpf.sos)(pilot)[0][:n]
    return float(np.sum(filtered ** 2) * config.dt / PILOT_BITS)


def _decision_form(config: UwbConfig, bpf: BandPassFilter,
                   history: int) -> tuple[np.ndarray, np.ndarray]:
    """``(eigenvalues, eigenvectors)`` of the decision form ``M`` over
    ``history + 1`` symbols of input (numerically zero modes
    dropped)."""
    sps = config.samples_per_symbol
    n_in = (history + 1) * sps
    impulse = np.zeros(n_in)
    impulse[0] = 1.0
    h = SectionFilter.from_sos(bpf.sos)(impulse)[0]
    # Rows: the last symbol's output samples; columns: every input
    # (conv[i, j] = h[i - j], zero above the diagonal).
    lag = np.arange(n_in - sps, n_in)[:, None] - np.arange(n_in)
    conv = np.where(lag >= 0, h[np.maximum(lag, 0)], 0.0)
    # M = conv' A conv has the rank of conv: with conv' = Q R, its
    # non-zero modes are those of K = R A R', mapped back by Q.
    q, r = np.linalg.qr(conv.T, mode="reduced")
    slot_sign = np.repeat([-1.0, 1.0], config.samples_per_slot)
    lam, p = np.linalg.eigh((r * slot_sign) @ r.T)
    keep = np.abs(lam) > 1e-12 * np.max(np.abs(lam))
    return lam[keep], q @ p[:, keep]


def _p_positive(lam: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """Imhof's ``P(sum_j lam_j (z_j + delta_j)^2 > 0)`` for every
    noncentrality vector ``delta[..., :]`` (``z`` standard normal)."""
    lam = lam / np.max(np.abs(lam))
    d2 = delta ** 2

    def integrand(t: float) -> np.ndarray:
        lt = lam * t
        q = 1.0 + lt * lt
        theta = 0.5 * (np.sum(np.arctan(lt)) + (d2 * (lt / q)).sum(-1))
        log_rho = (0.25 * np.sum(np.log1p(lt * lt))
                   + 0.5 * (d2 * (lt * lt / q)).sum(-1))
        if t == 0.0:
            # sin(theta) / t at t -> 0.
            return 0.5 * (np.sum(lam) + (d2 * lam).sum(-1))
        return np.sin(theta) / t * np.exp(-log_rho)

    # Imported here, not at module level: scipy.integrate (with the
    # scipy.optimize it loads) is about half a second of import that
    # only the oracle's integral needs.
    from scipy.integrate import quad_vec

    value, _err = quad_vec(integrand, 0.0, np.inf,
                           epsabs=1e-13, epsrel=1e-10)
    return 0.5 + value / np.pi


def ideal_awgn_ber(config: UwbConfig, bpf: BandPassFilter,
                   ebn0_db) -> np.ndarray:
    """Exact BER of the ideal-integrator 2-PPM energy detector.

    Args:
        config: link timing and pulse.
        bpf: the receiver band-pass (only its ``sos`` sections are
            used).
        ebn0_db: Eb/N0 grid in dB.

    Returns:
        The BER at each grid point.
    """
    with _trace.span("uwb.theory"):
        return _ideal_awgn_ber(config, bpf, ebn0_db, HISTORY)


def _ideal_awgn_ber(config: UwbConfig, bpf: BandPassFilter, ebn0_db,
                    history: int) -> np.ndarray:
    ebn0_db = np.atleast_1d(np.asarray(ebn0_db, dtype=float))
    lam, vecs = _decision_form(config, bpf, history)
    eb = pilot_energy(config, bpf)
    patterns = np.array(list(itertools.product((0, 1),
                                               repeat=history + 1)),
                        dtype=np.int8)
    proj = np.array([vecs.T @ ppm_waveform(bits, config)
                     for bits in patterns])
    # Per-sample variance N0 fs / 2 at each Eb/N0.
    sigmas = np.sqrt(eb / 10.0 ** (ebn0_db / 10.0) * config.fs / 2.0)
    p1 = _p_positive(lam, proj[None, :, :] / sigmas[:, None, None])
    sent = patterns[:, -1]
    return np.mean(np.where(sent == 1, 1.0 - p1, p1), axis=-1)
