"""IEEE 802.15.4a (TG4a) multipath channel model, CM1 residential LOS.

The TG4a final report specifies a modified Saleh-Valenzuela model:
Poisson cluster arrivals with exponential cluster decay, mixed-Poisson
ray arrivals with exponential intra-cluster decay, Nakagami-m small-scale
fading per ray, lognormal cluster shadowing, and a distance power law for
the path loss.  CM1 is the residential line-of-sight environment the
paper uses for its TWR experiments ("the TG4a UWB channel model employed
is the CM1 LOS with the recommended path loss") and for extracting the
integrator design constraints ("100 UWB TG4a CM1 waveform realizations").

Parameter values below are the CM1 column of the TG4a report (Molisch et
al., IEEE 802.15-04-0662).  The LOS first path is deterministic and the
model is band-limited only by the simulation sample rate, which matches
how behavioral UWB simulators consume it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.uwb.config import SPEED_OF_LIGHT


@dataclass(frozen=True)
class SalehValenzuelaParameters:
    """Modified S-V parameters (TG4a notation, times in seconds).

    Attributes:
        cluster_rate: cluster arrival rate Lambda (1/s).
        ray_rate_1 / ray_rate_2 / beta: mixed-Poisson ray arrival rates
            lambda_1, lambda_2 and mixture probability beta.
        cluster_decay: inter-cluster decay constant Gamma (s).
        ray_decay: intra-cluster decay constant gamma (s).
        cluster_shadowing_db: std-dev of the lognormal cluster shadowing.
        nakagami_m_mean_db / nakagami_m_std_db: lognormal distribution of
            the Nakagami m-factor.
        mean_clusters: average number of clusters L-bar.
        k_los: power ratio of the deterministic LOS first path relative
            to the total diffuse power (linear).
        pl0_db: path loss at 1 m (dB).
        pl_exponent: path-loss exponent n.
    """

    cluster_rate: float
    ray_rate_1: float
    ray_rate_2: float
    beta: float
    cluster_decay: float
    ray_decay: float
    cluster_shadowing_db: float
    nakagami_m_mean_db: float
    nakagami_m_std_db: float
    mean_clusters: float
    k_los: float
    pl0_db: float
    pl_exponent: float


#: CM1: residential LOS, 7-20 m (TG4a report table values).
CM1_PARAMETERS = SalehValenzuelaParameters(
    cluster_rate=0.047e9,
    ray_rate_1=1.54e9,
    ray_rate_2=0.15e9,
    beta=0.095,
    cluster_decay=22.61e-9,
    ray_decay=12.53e-9,
    cluster_shadowing_db=2.75,
    nakagami_m_mean_db=0.67,
    nakagami_m_std_db=0.28,
    mean_clusters=3.0,
    k_los=1.0,
    pl0_db=43.9,
    pl_exponent=1.79,
)


def path_loss_db(distance: float,
                 params: SalehValenzuelaParameters = CM1_PARAMETERS) -> float:
    """Distance power-law path loss ``PL0 + 10 n log10(d / 1m)``."""
    if distance <= 0:
        raise ValueError("distance must be positive")
    return params.pl0_db + 10.0 * params.pl_exponent * math.log10(distance)


@dataclass
class ChannelRealization:
    """A sampled channel impulse response plus its propagation delay.

    Attributes:
        taps: impulse-response tap gains at the simulation rate.
        delay_samples: integer propagation delay (line-of-sight flight
            time) preceding the first tap.
        fs: sample rate the taps are defined at.
        distance: link distance (m).
    """

    taps: np.ndarray
    delay_samples: int
    fs: float
    distance: float

    def apply(self, waveform: np.ndarray, extra_tail: int = 0) -> np.ndarray:
        """Convolve *waveform* with the channel (delay included).

        The output is ``delay_samples`` zeros, then the full linear
        convolution ``waveform * taps`` (whose multipath ringing
        extends ``len(taps) - 1`` samples past the input), then
        ``extra_tail`` literal zeros - total length ``delay_samples +
        len(waveform) + len(taps) - 1 + extra_tail``.

        ``extra_tail`` exists for consumers that slice a *fixed-size*
        window out of the result: a chunked receiver reading
        ``out[delay_samples : delay_samples + n]`` needs ``n <=
        len(waveform) + len(taps) - 1`` to stay in bounds, and padding
        the tail keeps such slices valid when ``n`` runs past the
        convolution (e.g. a listening window longer than the chunk, as
        in the ranging exchange).  The padding is appended *after* the
        ringing, so it never truncates or overlaps multipath energy -
        ``apply(w, extra_tail=k)[:-k]`` equals ``apply(w)`` exactly.
        """
        out = np.convolve(waveform, self.taps)
        pad = np.zeros(self.delay_samples)
        tail = np.zeros(extra_tail)
        return np.concatenate([pad, out, tail])


class Cm1Channel:
    """Generator of CM1 channel realizations.

    Args:
        fs: simulation sample rate.
        apply_path_loss: scale taps by the recommended distance power
            law (the paper's TWR runs use "the recommended path loss").
    """

    #: the S-V parameter set.
    params: SalehValenzuelaParameters = CM1_PARAMETERS
    #: truncation of the power-delay profile (s).
    max_excess_delay = 120e-9

    def __init__(self, fs: float, apply_path_loss: bool = True):
        self.fs = float(fs)
        self.apply_path_loss = apply_path_loss

    def _nakagami_amplitude(self, rng: np.random.Generator,
                            mean_power: float) -> float:
        p = self.params
        m_db = rng.normal(p.nakagami_m_mean_db, p.nakagami_m_std_db)
        m = max(0.5, 10.0 ** (m_db / 10.0))
        # Nakagami-m amplitude == sqrt of Gamma(m, mean_power/m).
        return math.sqrt(rng.gamma(m, mean_power / m))

    def realize(self, distance: float,
                rng: np.random.Generator) -> ChannelRealization:
        """Draw one channel realization at *distance* meters.

        Args:
            distance: link distance (drives the flight-time delay and,
                when enabled, the path loss).
            rng: entropy source of the stochastic tap draw.
        """
        if distance <= 0:
            raise ValueError("distance must be positive")
        p = self.params
        n_taps = int(round(self.max_excess_delay * self.fs)) + 1
        taps = np.zeros(n_taps)

        n_clusters = max(1, rng.poisson(p.mean_clusters))
        cluster_times = [0.0]
        while len(cluster_times) < n_clusters:
            cluster_times.append(
                cluster_times[-1] + rng.exponential(1.0 / p.cluster_rate))

        for t_cluster in cluster_times:
            if t_cluster >= self.max_excess_delay:
                break
            cluster_gain = (math.exp(-t_cluster / p.cluster_decay)
                            * 10.0 ** (rng.normal(0.0,
                                                  p.cluster_shadowing_db)
                                       / 20.0))
            t_ray = 0.0
            while t_cluster + t_ray < self.max_excess_delay:
                mean_power = cluster_gain ** 2 * math.exp(
                    -t_ray / p.ray_decay)
                amp = self._nakagami_amplitude(rng, mean_power)
                sign = 1.0 if rng.random() < 0.5 else -1.0
                idx = int(round((t_cluster + t_ray) * self.fs))
                if idx < n_taps:
                    taps[idx] += sign * amp
                rate = p.ray_rate_1 if rng.random() < p.beta else p.ray_rate_2
                t_ray += rng.exponential(1.0 / rate)

        # Deterministic LOS first path carrying k_los times the diffuse
        # energy (CM1 is line-of-sight).
        diffuse_energy = float(np.sum(taps ** 2))
        taps[0] += math.sqrt(p.k_los * max(diffuse_energy, 1e-30))

        # Normalize to unit energy, then apply the distance power law.
        energy = float(np.sum(taps ** 2))
        taps /= math.sqrt(energy)
        if self.apply_path_loss:
            taps *= 10.0 ** (-path_loss_db(distance, p) / 20.0)

        delay = int(round(distance / SPEED_OF_LIGHT * self.fs))
        return ChannelRealization(taps=taps, delay_samples=delay,
                                  fs=self.fs, distance=distance)
