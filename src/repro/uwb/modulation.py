"""2-PPM modulation and the packet structure.

"In a 2-PPM modulated signal the symbol repetition period Ts is divided
in two slots of duration Ts/2.  In case of a transmission of a '0' the
UWB pulse appears in slot [0, Ts/2], in case of a '1' the pulse lays in
[Ts/2, Ts]" - and a packet is "a non-modulated sequence of pulses, i.e.
the preamble, followed by the modulated data, i.e. the payload".
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.uwb.config import UwbConfig
from repro.uwb.pulse import sampled_pulse


@lru_cache(maxsize=64)
def _pulse_template(fs: float, tau: float, order: int) -> np.ndarray:
    """Memoized read-only pulse samples (the waveform synthesizer runs
    once per Monte-Carlo chunk; re-evaluating the Hermite polynomial
    every chunk is pure waste)."""
    pulse = sampled_pulse(fs, tau, order)
    pulse.setflags(write=False)
    return pulse


def random_bits(n: int, rng: np.random.Generator) -> np.ndarray:
    """*n* equiprobable bits as an int8 array."""
    return rng.integers(0, 2, size=n).astype(np.int8)


@dataclass(frozen=True)
class Packet:
    """A UWB packet: preamble (all pulses in slot 0) + payload bits."""

    preamble_symbols: int
    payload: np.ndarray

    def __post_init__(self):
        payload = np.asarray(self.payload, dtype=np.int8)
        if payload.ndim != 1:
            raise ValueError("payload must be a 1-D bit array")
        if np.any((payload != 0) & (payload != 1)):
            raise ValueError("payload bits must be 0/1")
        object.__setattr__(self, "payload", payload)
        if self.preamble_symbols < 0:
            raise ValueError("preamble_symbols must be >= 0")

    @property
    def symbols(self) -> np.ndarray:
        """Per-symbol slot choices: preamble zeros then payload bits."""
        return np.concatenate([
            np.zeros(self.preamble_symbols, dtype=np.int8), self.payload])

    @property
    def n_symbols(self) -> int:
        return self.preamble_symbols + len(self.payload)


def ppm_positions(symbols: np.ndarray, config: UwbConfig) -> np.ndarray:
    """Sample index of each pulse center.

    The pulse of symbol *k* with slot choice ``b`` is centered in the
    middle of slot ``b`` of symbol period *k*.
    """
    symbols = np.asarray(symbols, dtype=np.int64)
    n_sym = config.samples_per_symbol
    n_slot = config.samples_per_slot
    base = np.arange(len(symbols), dtype=np.int64) * n_sym
    return base + symbols * n_slot + n_slot // 2


def ppm_pulse_samples(symbols: np.ndarray, config: UwbConfig
                      ) -> tuple[np.ndarray, np.ndarray] | None:
    """The nonzero part of the unit-amplitude :func:`ppm_waveform`:
    ``(index, value)`` of every pulse sample inside the
    ``len(symbols) * samples_per_symbol`` span.

    Returns ``None`` when pulse supports overlap (the train is then a
    sum, which only :func:`ppm_waveform` accumulates in its order).
    Where supports are disjoint, ``wave[index] = value`` on zeros is
    :func:`ppm_waveform` sample for sample.
    """
    config.validate()
    pulse = _pulse_template(config.fs, config.pulse_tau,
                            config.pulse_order)
    total = len(symbols) * config.samples_per_symbol
    centers = ppm_positions(symbols, config)
    if len(centers) > 1 and int(np.min(np.diff(centers))) < len(pulse):
        return None
    index = (centers[:, None]
             + (np.arange(len(pulse)) - len(pulse) // 2)).ravel()
    value = np.broadcast_to(pulse, (len(centers), len(pulse))).ravel()
    inside = (index >= 0) & (index < total)
    return index[inside], value[inside]


def ppm_waveform(symbols: np.ndarray, config: UwbConfig,
                 amplitude: float = 1.0) -> np.ndarray:
    """Synthesize the 2-PPM pulse train for *symbols*.

    Args:
        symbols: slot choice (0/1) per symbol.
        amplitude: peak pulse amplitude.

    Returns:
        Waveform array of ``len(symbols) * samples_per_symbol``
        samples.
    """
    config.validate()
    pulse = _pulse_template(config.fs, config.pulse_tau,
                            config.pulse_order)
    half = len(pulse) // 2
    total = len(symbols) * config.samples_per_symbol
    # Pad by half a pulse on each side so early/late pulses stay intact,
    # then strip the head pad so sample 0 corresponds to t = 0.
    wave = np.zeros(total + len(pulse))
    centers = ppm_positions(symbols, config)
    if len(centers):
        idx = centers[:, None] + np.arange(len(pulse))
        contrib = np.broadcast_to(amplitude * pulse, idx.shape).ravel()
        if len(centers) == 1 or int(np.min(np.diff(centers))) >= len(pulse):
            # Disjoint pulse supports (the 2-PPM slot spacing exceeds
            # the pulse length): a flat scatter assignment.
            wave[idx.ravel()] = contrib
        else:
            # Overlapping supports accumulate in center order, exactly
            # like the historic per-pulse loop.
            np.add.at(wave, idx.ravel(), contrib)
    return wave[half:half + total]


def packet_waveform(packet: Packet, config: UwbConfig,
                    amplitude: float = 1.0) -> np.ndarray:
    """Waveform of a full packet (preamble + payload)."""
    return ppm_waveform(packet.symbols, config, amplitude=amplitude)
