"""Independent sources and their transient waveforms.

A source has a DC value, an AC magnitude/phase (for small-signal analysis)
and an optional transient :class:`Waveform`.  When a waveform is present it
defines the large-signal value at time *t*; otherwise the DC value is used.

Waveforms mirror the classic Spice ones (``PULSE``, ``SIN``, ``PWL``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.spice.devices.base import TwoTerminal
from repro.spice.errors import NetlistError
from repro.spice.units import parse_value


class Waveform:
    """Base class of transient source waveforms: a function of time."""

    def value(self, t: float) -> float:
        raise NotImplementedError

    def __call__(self, t: float) -> float:
        return self.value(t)


@dataclass(frozen=True)
class Pulse(Waveform):
    """Spice ``PULSE(v1 v2 td tr tf pw per)`` waveform."""

    v1: float
    v2: float
    td: float = 0.0
    tr: float = 1e-12
    tf: float = 1e-12
    pw: float = 1e-6
    per: float = math.inf

    def __post_init__(self):
        if self.tr < 0 or self.tf < 0 or self.pw < 0:
            raise NetlistError("PULSE: tr, tf and pw must be >= 0")
        if self.per <= 0:
            raise NetlistError("PULSE: period must be positive")

    def value(self, t: float) -> float:
        if t < self.td:
            return self.v1
        t = t - self.td
        if math.isfinite(self.per):
            t = math.fmod(t, self.per)
        tr = max(self.tr, 1e-15)
        tf = max(self.tf, 1e-15)
        if t < tr:
            return self.v1 + (self.v2 - self.v1) * t / tr
        t -= tr
        if t < self.pw:
            return self.v2
        t -= self.pw
        if t < tf:
            return self.v2 + (self.v1 - self.v2) * t / tf
        return self.v1


@dataclass(frozen=True)
class Sin(Waveform):
    """Spice ``SIN(vo va freq td theta)`` waveform."""

    vo: float
    va: float
    freq: float
    td: float = 0.0
    theta: float = 0.0

    def __post_init__(self):
        if self.freq <= 0:
            raise NetlistError("SIN: frequency must be positive")

    def value(self, t: float) -> float:
        if t < self.td:
            return self.vo
        dt = t - self.td
        return (self.vo
                + self.va * math.exp(-dt * self.theta)
                * math.sin(2.0 * math.pi * self.freq * dt))


@dataclass(frozen=True)
class Pwl(Waveform):
    """Piece-wise linear waveform from ``(t, v)`` breakpoints."""

    points: tuple[tuple[float, float], ...]

    def __init__(self, points: Sequence[tuple[float, float]]):
        pts = tuple((float(t), float(v)) for t, v in points)
        if len(pts) < 1:
            raise NetlistError("PWL: needs at least one point")
        times = [t for t, _ in pts]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise NetlistError("PWL: time points must be strictly increasing")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "_times", np.array(times))
        object.__setattr__(self, "_values", np.array([v for _, v in pts]))

    def value(self, t: float) -> float:
        times, values = self._times, self._values
        if t <= times[0]:
            return float(values[0])
        if t >= times[-1]:
            return float(values[-1])
        return float(np.interp(t, times, values))


@dataclass(frozen=True)
class _Source(TwoTerminal):
    dc: float = 0.0
    ac_mag: float = 0.0
    ac_phase: float = 0.0
    wave: Waveform | None = None

    def __init__(self, name: str, n1: str, n2: str, dc: float | str = 0.0,
                 ac_mag: float | str = 0.0, ac_phase: float = 0.0,
                 wave: Waveform | None = None):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "n1", n1)
        object.__setattr__(self, "n2", n2)
        object.__setattr__(self, "dc", parse_value(dc))
        object.__setattr__(self, "ac_mag", parse_value(ac_mag))
        object.__setattr__(self, "ac_phase", float(ac_phase))
        object.__setattr__(self, "wave", wave)

    def value_at(self, t: float) -> float:
        """Large-signal value at time *t* (waveform if present, else DC)."""
        if self.wave is None:
            return self.dc
        return self.wave.value(t)

    @property
    def ac_complex(self) -> complex:
        """AC stimulus as a phasor."""
        return self.ac_mag * complex(
            math.cos(math.radians(self.ac_phase)),
            math.sin(math.radians(self.ac_phase)),
        )


class VoltageSource(_Source):
    """Independent voltage source (one MNA branch-current unknown).

    Positive terminal is ``n1``; the branch current flows n1 -> n2 inside
    the source (Spice convention: current *into* n1 is reported).
    """


class CurrentSource(_Source):
    """Independent current source; current flows from ``n1`` to ``n2``
    through the source (i.e. it pushes current out of ``n2``)."""
