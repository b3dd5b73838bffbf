"""Linear passive devices: resistor and capacitor."""

from __future__ import annotations

from dataclasses import dataclass

from repro.spice.devices.base import TwoTerminal
from repro.spice.errors import NetlistError
from repro.spice.units import parse_value


def _positive(name: str, value: float | str, what: str) -> float:
    out = parse_value(value)
    if out <= 0.0:
        raise NetlistError(f"{name}: {what} must be positive, got {out}")
    return out


@dataclass(frozen=True)
class Resistor(TwoTerminal):
    """Ideal linear resistor.

    Args:
        value: resistance in ohms (Spice suffixes accepted, e.g. ``"10k"``).
    """

    value: float

    def __init__(self, name: str, n1: str, n2: str, value: float | str):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "n1", n1)
        object.__setattr__(self, "n2", n2)
        object.__setattr__(self, "value", _positive(name, value, "resistance"))

    @property
    def conductance(self) -> float:
        return 1.0 / self.value


@dataclass(frozen=True)
class Capacitor(TwoTerminal):
    """Ideal linear capacitor with optional initial voltage ``ic``."""

    value: float
    ic: float | None = None

    def __init__(self, name: str, n1: str, n2: str, value: float | str,
                 ic: float | None = None):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "n1", n1)
        object.__setattr__(self, "n2", n2)
        object.__setattr__(self, "value", _positive(name, value, "capacitance"))
        object.__setattr__(self, "ic", None if ic is None else float(ic))
