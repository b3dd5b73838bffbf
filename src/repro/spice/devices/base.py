"""Base classes shared by all circuit devices."""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Device:
    """A circuit element: a name plus the nodes it connects to.

    Devices are immutable descriptions.  Node names are strings; ``"0"``
    (or ``"gnd"``) is the global reference.  Subcircuit flattening renames
    nodes by prefixing the instance path, so a device may appear in a
    flattened circuit with nodes like ``"x1.out"``.
    """

    name: str

    @property
    def nodes(self) -> tuple[str, ...]:
        raise NotImplementedError

    def renamed(self, name: str, node_map: dict[str, str]) -> "Device":
        """Return a copy with a new name and remapped nodes (used when
        flattening subcircuit instances)."""
        raise NotImplementedError


@dataclass(frozen=True)
class TwoTerminal(Device):
    """A device with exactly two terminals ``n1`` (+) and ``n2`` (-)."""

    n1: str
    n2: str

    @property
    def nodes(self) -> tuple[str, ...]:
        return (self.n1, self.n2)

    def renamed(self, name: str, node_map: dict[str, str]) -> "TwoTerminal":
        return replace(
            self,
            name=name,
            n1=node_map.get(self.n1, self.n1),
            n2=node_map.get(self.n2, self.n2),
        )
