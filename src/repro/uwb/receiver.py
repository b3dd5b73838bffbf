"""Sampled-waveform energy-detection receiver (packet level).

Implements the receive phases the paper describes:

1. **NE** - noise estimation: window energies while the channel is idle
   set the detection threshold,
2. **PS** - preamble sense: energy exceeding the threshold flags an
   incoming packet,
3. **AGC** - gain calibration from preamble measurements,
4. **Synchronization** - fold the windowed integrator outputs over the
   symbol period and lock onto the preamble pulse phase,
5. **Demodulation** - per symbol, integrate both PPM slots and compare
   (through the ADC).

The windowed energies are produced by the *installed integrator model*,
so swapping the ideal / two-pole / circuit-surrogate integrator changes
synchronization and demodulation fidelity exactly as the methodology
intends.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.uwb.adc import Adc, decide_slots
from repro.uwb.agc import Agc, AgcDecision
from repro.uwb.bpf import BandPassFilter
from repro.uwb.config import UwbConfig
from repro.uwb.frontend import Vga
from repro.uwb.integrator import WindowIntegrator


@dataclass
class ReceiverResult:
    """Outcome of processing one captured waveform.

    Attributes:
        detected: preamble sense fired.
        toa: estimated time of the first preamble pulse *center* (s),
            quantized to the synchronizer window grid; None if not
            detected.
        bits: demodulated payload bits.
        agc: the AGC decision taken.
        noise_mean / noise_std: NE-phase statistics (per window).
        sync_profile: folded energy profile the synchronizer peaked on.
        sync_phase: winning window phase index.
    """

    detected: bool
    toa: float | None
    bits: np.ndarray
    agc: AgcDecision | None
    noise_mean: float
    noise_std: float
    sync_profile: np.ndarray
    sync_phase: int


class EnergyDetectionReceiver:
    """Packet receiver around a pluggable integrator model.

    :func:`repro.link.backends.build_receiver` builds every part from a
    :class:`~repro.link.spec.LinkSpec`.

    Args:
        config: link configuration.
        integrator: integrator model (phase II / IV / circuit surrogate).
        vga / adc: front-end blocks.
        agc: gain controller programming *vga*.
        bpf: receiver band-pass.
        detection_factor: threshold in noise std-devs above the mean.
        toa_threshold_fraction: ADC-referred TOA crossing fraction
            (of full scale).
    """

    def __init__(self, config: UwbConfig, integrator: WindowIntegrator,
                 *, vga: Vga, adc: Adc, agc: Agc, bpf: BandPassFilter,
                 detection_factor: float, toa_threshold_fraction: float):
        config.validate()
        self.config = config
        self.integrator = integrator
        self.vga = vga
        self.adc = adc
        self.agc = agc
        self.bpf = bpf
        self.detection_factor = float(detection_factor)
        self.toa_threshold_fraction = float(toa_threshold_fraction)

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _window_view(self, x: np.ndarray) -> np.ndarray:
        """Reshape a waveform into contiguous synchronizer windows."""
        n_win = self.config.samples_per_window
        usable = (len(x) // n_win) * n_win
        return x[:usable].reshape(-1, n_win)

    def window_energies(self, x: np.ndarray) -> np.ndarray:
        """Raw ``integral x^2 dt`` per synchronizer window."""
        view = self._window_view(x)
        return np.sum(view * view, axis=1) * self.config.dt

    # ------------------------------------------------------------------
    # main entry
    # ------------------------------------------------------------------
    def process(self, waveform: np.ndarray,
                payload_bits: int | None = None) -> ReceiverResult:
        """Run NE -> PS -> AGC -> sync -> demodulate on *waveform*.

        The waveform must contain idle noise at its start (the NE
        windows) followed by the packet.

        Args:
            payload_bits: payload length to demodulate (default: the
                configured ``payload_bits``).
        """
        cfg = self.config
        if payload_bits is None:
            payload_bits = cfg.payload_bits
        filtered = self.bpf(np.asarray(waveform, dtype=float))

        # --- Phase NE: noise statistics on the leading idle windows.
        energies = self.window_energies(filtered)
        n_ne = cfg.noise_est_windows
        if len(energies) <= n_ne:
            raise ValueError("waveform too short for noise estimation")
        noise_mean = float(np.mean(energies[:n_ne]))
        noise_std = float(np.std(energies[:n_ne])) or 1e-30

        # --- Phase PS: first window exceeding the threshold, confirmed
        # by a second hit within the following symbol.
        threshold = noise_mean + self.detection_factor * noise_std
        wins_per_symbol = max(1, cfg.samples_per_symbol
                              // cfg.samples_per_window)
        hot = np.nonzero(energies[n_ne:] > threshold)[0]
        detect_win = None
        for idx in hot:
            k = n_ne + int(idx)
            lookahead = energies[k + 1:k + 1 + wins_per_symbol]
            if np.any(lookahead > threshold):
                detect_win = k
                break
        if detect_win is None:
            return ReceiverResult(
                detected=False, toa=None, bits=np.zeros(0, np.int8),
                agc=None, noise_mean=noise_mean, noise_std=noise_std,
                sync_profile=np.zeros(0), sync_phase=-1)

        # --- AGC: unity-gain measurements over a few preamble symbols.
        n_win = cfg.samples_per_window
        meas_start = detect_win * n_win
        meas_len = 4 * cfg.samples_per_symbol
        segment = filtered[meas_start:meas_start + meas_len]
        peak_amplitude = float(np.max(np.abs(segment))) if len(segment) else 0.0
        window_energy = float(np.max(
            self.window_energies(segment))) if len(segment) else 0.0
        decision = self.agc.decide(peak_amplitude, window_energy)
        self.agc.apply(decision)

        # --- Synchronization: fold integrator outputs of the squared,
        # amplified signal over the symbol grid.
        sync_start = meas_start
        sync_len = cfg.sync_symbols * cfg.samples_per_symbol
        sync_seg = filtered[sync_start:sync_start + sync_len]
        if len(sync_seg) < sync_len:
            raise ValueError("waveform too short for synchronization")
        squared = np.square(self.vga(sync_seg))
        windows = squared.reshape(cfg.sync_symbols,
                                  wins_per_symbol, n_win)
        values = self.integrator.window_outputs(windows, cfg.dt)
        profile = np.sum(values, axis=0)
        phase = int(np.argmax(profile))

        # TOA: ADC-referred leading edge.  Within the first symbols after
        # preamble sense, the first window whose *quantized* integrator
        # output crosses a fixed fraction of the ADC full scale marks the
        # arrival.  The bounded search keeps distant noise spikes out;
        # the absolute (ADC-referred) threshold keeps the estimate
        # sensitive to the integrator's output *level*.  This is where
        # the installed integrator's fidelity matters: a compressed
        # (lower) output voltage crosses the threshold later - the
        # mechanism behind the paper's table-2 ranging offset.
        codes = self.adc.convert(
            np.maximum(decision.post_gain * values.reshape(-1), 0.0))
        toa_code = max(1, int(math.ceil(
            self.toa_threshold_fraction * (self.adc.levels - 1))))
        search_span = 2 * wins_per_symbol
        crossing = np.nonzero(codes[:search_span] >= toa_code)[0]
        toa_win = int(crossing[0]) if len(crossing) else phase
        toa = ((sync_start + toa_win * n_win) + 0.5 * n_win) * cfg.dt

        # --- Demodulation: packet symbol boundaries from the TOA (the
        # preamble pulse sits at the center of slot 0).
        pulse_offset = cfg.samples_per_slot // 2
        first_symbol_start = (sync_start + phase * n_win
                              + n_win // 2 - pulse_offset)
        payload_start = (first_symbol_start
                         + cfg.preamble_symbols * cfg.samples_per_symbol)
        bits = self._demodulate(filtered, payload_start, payload_bits,
                                decision.post_gain)
        return ReceiverResult(
            detected=True, toa=toa, bits=bits, agc=decision,
            noise_mean=noise_mean, noise_std=noise_std,
            sync_profile=profile, sync_phase=phase)

    def _demodulate(self, filtered: np.ndarray, payload_start: int,
                    n_bits: int, post_gain: float) -> np.ndarray:
        cfg = self.config
        n_sym = cfg.samples_per_symbol
        n_slot = cfg.samples_per_slot
        end = payload_start + n_bits * n_sym
        if payload_start < 0 or end > len(filtered):
            n_bits = max(0, (len(filtered) - payload_start) // n_sym)
            end = payload_start + n_bits * n_sym
        if n_bits == 0:
            return np.zeros(0, np.int8)
        segment = filtered[payload_start:end]
        squared = np.square(self.vga(segment)).reshape(n_bits, 2, n_slot)
        values = self.integrator.window_outputs(squared, cfg.dt)
        _, bits = decide_slots(post_gain * values, self.adc)
        return bits
