"""Waveform recording and measurement utilities."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.ams.quantity import Quantity
from repro.ams.signal import Signal


class Trace:
    """A recorded waveform: time array + value array with measurement
    helpers."""

    def __init__(self, name: str, t: np.ndarray, values: np.ndarray):
        self.name = name
        self.t = np.asarray(t, dtype=float)
        self.values = np.asarray(values, dtype=float)

    def at(self, time: float) -> float:
        """Linear-interpolated value at *time*."""
        return float(np.interp(time, self.t, self.values))

    def minimum(self) -> float:
        return float(np.min(self.values))

    def maximum(self) -> float:
        return float(np.max(self.values))

    def rms(self) -> float:
        return float(np.sqrt(np.mean(self.values ** 2)))

    def __len__(self) -> int:
        return len(self.t)

    def __repr__(self) -> str:
        return f"Trace({self.name!r}, {len(self)} points)"


class Recorder:
    """Samples quantities/signals after every analog step and exposes
    them as :class:`Trace` objects.

    Args:
        sim: the simulator to attach to.
        probes: quantities or signals to record (signal values must be
            numeric for tracing).
    """

    def __init__(self, sim, probes: Sequence[Quantity | Signal]):
        self.probes = list(probes)
        self._times: list[float] = []
        self._data: list[list[float]] = [[] for _ in self.probes]
        sim.add_step_hook(self)
        on_reset = getattr(sim, "on_reset", None)
        if on_reset is not None:
            on_reset(self.clear)

    def __call__(self, t: float) -> None:
        """Per-step hook (reference engine)."""
        self._times.append(t)
        for slot, probe in zip(self._data, self.probes):
            slot.append(float(probe.value))

    def hook_block(self, t: np.ndarray, resolve) -> None:
        """Segment hook (compiled engine): record a whole inter-event
        window at once.  *resolve(probe)* returns the probe's ``(n,)``
        value array over the window."""
        self._times.extend(t.tolist())
        for slot, probe in zip(self._data, self.probes):
            slot.extend(np.asarray(resolve(probe), dtype=float).tolist())

    def trace(self, probe_or_name) -> Trace:
        """Trace for a probe object or its name."""
        for idx, probe in enumerate(self.probes):
            if probe is probe_or_name or probe.name == probe_or_name:
                return Trace(probe.name, np.array(self._times),
                             np.array(self._data[idx]))
        raise KeyError(f"no probe named {probe_or_name!r}")

    @property
    def t(self) -> np.ndarray:
        return np.array(self._times)

    def clear(self) -> None:
        self._times.clear()
        for slot in self._data:
            slot.clear()
