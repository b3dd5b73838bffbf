"""Two-Way Ranging (TWR) over the CM1 channel.

"The TWR consists in a distance estimation through the Round-Trip-Time
(RTT) of UWB signals exchanged between two transceivers.  A request
packet is sent by a first transceiver and is replied by a second after a
known processing time (PT).  The replied packet is received again by the
first transceiver which estimates the RTT by subtracting the PT."

The distance estimate is ``d = c * (RTT - PT) / 2``; its error is
``c * (e_A + e_B) / 2`` where ``e_X`` is each receiver's time-of-arrival
estimation error.  Each TWR iteration therefore simulates two one-way
packet receptions (request and reply) through fresh noise (and, per
packet, a fresh CM1 realization), using the full receiver chain -
including the installed integrator model, which is how the ideal-vs-ELDO
comparison of the paper's table 2 is reproduced.

The ``counter`` block of figure 1 is modeled by quantizing the RTT to
the counter clock, one simulation sample (the receiver's TOA itself
carries the coarser synchronizer-window resolution).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.uwb.channel.ieee802154a import Cm1Channel
from repro.uwb.config import SPEED_OF_LIGHT, UwbConfig
from repro.uwb.modulation import Packet, packet_waveform, random_bits
from repro.uwb.receiver import EnergyDetectionReceiver


@dataclass
class RangingResult:
    """Statistics of a TWR campaign.

    Attributes:
        distances: per-iteration distance estimates (m).
        true_distance: the actual link distance (m).
    """

    distances: np.ndarray
    true_distance: float

    @property
    def mean(self) -> float:
        return float(np.mean(self.distances))

    @property
    def variance(self) -> float:
        return float(np.var(self.distances, ddof=1)) if len(
            self.distances) > 1 else 0.0

    @property
    def std(self) -> float:
        return math.sqrt(self.variance)

    @property
    def offset(self) -> float:
        """Mean estimation bias (m)."""
        return self.mean - self.true_distance

    def summary(self) -> dict[str, float]:
        return {"mean_m": self.mean, "variance_m2": self.variance,
                "std_m": self.std, "offset_m": self.offset,
                "true_m": self.true_distance,
                "iterations": float(len(self.distances))}


class TwoWayRanging:
    """TWR simulator between two identical transceivers.

    Args:
        config: link configuration.
        receiver_factory: builds a fresh receiver per reception (so AGC
            state does not leak across iterations); receives no
            arguments.
        distance: true link distance (m) - the paper uses 9.9 m.
        tx_amplitude: transmitted pulse peak amplitude (V).
        noise_sigma: receiver input noise per sample (V rms).
        channel: CM1 generator (a fresh realization per packet);
            ``None`` uses an ideal (delay-only) channel.

    Each packet is preceded by an idle head of ``noise_est_windows + 8``
    integration windows (for the NE phase), and the RTT counter ticks
    once per simulation sample (the TOA itself is window-quantized).
    The known processing time cancels out of the RTT error, so it is
    not modeled.
    """

    def __init__(self, config: UwbConfig,
                 receiver_factory: Callable[[], EnergyDetectionReceiver],
                 distance: float = 9.9,
                 tx_amplitude: float = 1.0,
                 noise_sigma: float = 1e-4,
                 channel: Cm1Channel | None = None):
        config.validate()
        if distance <= 0:
            raise ValueError("distance must be positive")
        self.config = config
        self.receiver_factory = receiver_factory
        self.distance = float(distance)
        self.tx_amplitude = float(tx_amplitude)
        self.noise_sigma = float(noise_sigma)
        self.channel = channel
        self.idle_time = (config.noise_est_windows + 8) \
            * config.integration_window
        self.counter_period = config.dt

    # ------------------------------------------------------------------
    def _one_way_toa_error(self, rng: np.random.Generator) -> float | None:
        """Simulate one packet flight; return ``toa_hat - toa_true`` (s)
        or None if the receiver missed the packet."""
        cfg = self.config
        packet = Packet(cfg.preamble_symbols,
                        random_bits(cfg.payload_bits, rng))
        wave = packet_waveform(packet, cfg, amplitude=self.tx_amplitude)

        idle = int(round(self.idle_time * cfg.fs))
        if self.channel is not None:
            realization = self.channel.realize(self.distance, rng)
            rx = realization.apply(wave, extra_tail=cfg.samples_per_symbol)
            delay_samples = realization.delay_samples
        else:
            delay_samples = int(round(
                self.distance / SPEED_OF_LIGHT * cfg.fs))
            rx = np.concatenate([np.zeros(delay_samples), wave,
                                 np.zeros(cfg.samples_per_symbol)])
        rx = np.concatenate([np.zeros(idle), rx])
        rx = rx + rng.normal(0.0, self.noise_sigma, size=len(rx))

        receiver = self.receiver_factory()
        result = receiver.process(rx, payload_bits=cfg.payload_bits)
        if not result.detected or result.toa is None:
            return None
        # True TOA: center of the first preamble pulse after flight.
        true_toa = (idle + delay_samples) / cfg.fs \
            + (cfg.samples_per_slot // 2) * cfg.dt
        return result.toa - true_toa

    def run(self, iterations: int,
            rng: np.random.Generator) -> RangingResult:
        """Run *iterations* TWR exchanges; failed detections are
        retried with fresh noise (they would be retransmissions)."""
        tick = self.counter_period
        estimates = []
        attempts = 0
        max_attempts = iterations * 10
        while len(estimates) < iterations and attempts < max_attempts:
            attempts += 1
            err_request = self._one_way_toa_error(rng)
            err_reply = self._one_way_toa_error(rng)
            if err_request is None or err_reply is None:
                continue
            rtt_error = err_request + err_reply
            # Counter quantization of the measured RTT.
            rtt_error = round(rtt_error / tick) * tick
            d_hat = self.distance + SPEED_OF_LIGHT * rtt_error / 2.0
            estimates.append(d_hat)
        if len(estimates) < iterations:
            raise RuntimeError(
                f"TWR: only {len(estimates)}/{iterations} exchanges "
                f"detected after {attempts} attempts - link budget too "
                "weak for the configured noise")
        return RangingResult(distances=np.array(estimates),
                             true_distance=self.distance)
