"""Linear controlled sources (Spice E and G elements)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.spice.devices.base import Device
from repro.spice.units import parse_value


@dataclass(frozen=True)
class _Controlled(Device):
    n1: str
    n2: str
    cn1: str
    cn2: str
    gain: float

    def __init__(self, name: str, n1: str, n2: str, cn1: str, cn2: str,
                 gain: float | str):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "n1", n1)
        object.__setattr__(self, "n2", n2)
        object.__setattr__(self, "cn1", cn1)
        object.__setattr__(self, "cn2", cn2)
        object.__setattr__(self, "gain", parse_value(gain))

    @property
    def nodes(self) -> tuple[str, ...]:
        return (self.n1, self.n2, self.cn1, self.cn2)

    def renamed(self, name: str, node_map: dict[str, str]) -> "_Controlled":
        return type(self)(
            name,
            node_map.get(self.n1, self.n1),
            node_map.get(self.n2, self.n2),
            node_map.get(self.cn1, self.cn1),
            node_map.get(self.cn2, self.cn2),
            self.gain,
        )


class Vcvs(_Controlled):
    """Voltage-controlled voltage source (E element):
    ``v(n1,n2) = gain * v(cn1,cn2)``.  Adds one branch unknown."""


class Vccs(_Controlled):
    """Voltage-controlled current source (G element):
    current ``gain * v(cn1,cn2)`` flows from n1 to n2 through the source."""
