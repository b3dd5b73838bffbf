"""Circuit and subcircuit data model.

A :class:`Circuit` is a flat bag of devices plus model cards.  Hierarchy is
provided by :class:`Subckt`, which is flattened eagerly when instantiated
(internal nodes get an ``instance.`` prefix), mirroring how Spice expands
``X`` elements.  Node and device names are case-insensitive; ``0`` and
``gnd`` both denote the global reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.spice.devices.base import Device
from repro.spice.devices.diode import DiodeModel
from repro.spice.devices.mosfet import MosModel
from repro.spice.devices.switch import SwitchModel
from repro.spice.errors import NetlistError

#: Names (case-insensitive) that denote the global reference: the
#: classic ``0``/``gnd`` pair plus the ``!``-suffixed global-net
#: spelling of digital PDK decks (``gnd!``, ``vss!``).  Shared by the
#: lint circuit graph and the MNA node numbering, so static checks and
#: the simulator can never disagree about what is ground.
GROUND_ALIASES = ("0", "gnd", "gnd!", "vss!")

ModelCard = MosModel | DiodeModel | SwitchModel


def is_ground(node: str) -> bool:
    """True if *node* names the global reference."""
    return node.lower() in GROUND_ALIASES


def normalize_node(node: str) -> str:
    """Canonical (lower-case) node name, with ground collapsed to ``"0"``."""
    node = node.lower()
    return "0" if node in GROUND_ALIASES else node


class Circuit:
    """A flat circuit: devices + model cards + (optional) subckt library.

    Typical use::

        ckt = Circuit("divider")
        ckt.add(VoltageSource("vin", "in", "0", dc=1.8))
        ckt.add(Resistor("r1", "in", "out", "10k"))
        ckt.add(Resistor("r2", "out", "0", "10k"))
        op = operating_point(ckt)
    """

    def __init__(self, title: str = "", models: Iterable[ModelCard] = ()):
        self.title = title
        self.devices: list[Device] = []
        self.models: dict[str, ModelCard] = {}
        self.subckts: dict[str, Subckt] = {}
        self._subckt_uses: set[str] = set()
        self._device_names: set[str] = set()
        for model in models:
            self.add_model(model)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add(self, *devices: Device) -> "Circuit":
        """Add devices; names must be unique (case-insensitive)."""
        for dev in devices:
            key = dev.name.lower()
            if key in self._device_names:
                raise NetlistError(f"duplicate device name {dev.name!r}")
            normalized = dev.renamed(
                key, {n: normalize_node(n) for n in dev.nodes})
            self._device_names.add(key)
            self.devices.append(normalized)
        return self

    def add_model(self, model: ModelCard) -> "Circuit":
        key = model.name.lower()
        if key in self.models and self.models[key] != model:
            raise NetlistError(f"conflicting redefinition of model {model.name!r}")
        self.models[key] = model
        return self

    def add_subckt(self, subckt: "Subckt") -> "Circuit":
        key = subckt.name.lower()
        if key in self.subckts:
            raise NetlistError(f"duplicate subckt {subckt.name!r}")
        self.subckts[key] = subckt
        return self

    def instantiate(self, inst_name: str, subckt: "str | Subckt",
                    connections: Sequence[str]) -> "Circuit":
        """Flatten an instance of *subckt* into this circuit.

        *connections* are the actual nodes bound to the subckt ports, in
        port order.  Internal subckt nodes become ``<inst_name>.<node>``.
        Models defined inside the subckt are merged into this circuit.
        """
        if isinstance(subckt, str):
            try:
                subckt = self.subckts[subckt.lower()]
            except KeyError:
                raise NetlistError(f"unknown subckt {subckt!r}") from None
        self._subckt_uses.add(subckt.name.lower())
        subckt.flatten_into(self, inst_name.lower(),
                            [normalize_node(n) for n in connections])
        return self

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def node_names(self) -> list[str]:
        """All non-ground nodes, in first-appearance order."""
        seen: dict[str, None] = {}
        for dev in self.devices:
            for node in dev.nodes:
                if not is_ground(node):
                    seen.setdefault(node, None)
        return list(seen)

    def device(self, name: str) -> Device:
        key = name.lower()
        for dev in self.devices:
            if dev.name == key:
                return dev
        raise NetlistError(f"no device named {name!r}")

    def devices_of(self, cls: type) -> list[Device]:
        return [dev for dev in self.devices if isinstance(dev, cls)]

    def __len__(self) -> int:
        return len(self.devices)

    def __repr__(self) -> str:
        return (f"Circuit({self.title!r}, {len(self.devices)} devices, "
                f"{len(self.node_names())} nodes)")


@dataclass
class Subckt:
    """A reusable subcircuit definition.

    Args:
        name: subcircuit name.
        ports: external port names, in connection order.
        circuit: the internal circuit (may itself instantiate subckts that
            are registered on it).
    """

    name: str
    ports: Sequence[str]
    circuit: Circuit

    def __post_init__(self):
        self.ports = [normalize_node(p) for p in self.ports]
        port_set = set(self.ports)
        if len(port_set) != len(self.ports):
            raise NetlistError(f"subckt {self.name}: duplicate port names")

    def flatten_into(self, target: Circuit, inst: str,
                     connections: Sequence[str]) -> None:
        if len(connections) != len(self.ports):
            raise NetlistError(
                f"subckt {self.name}: expected {len(self.ports)} connections, "
                f"got {len(connections)}")
        port_map = dict(zip(self.ports, connections))

        def map_node(node: str) -> str:
            node = normalize_node(node)
            if is_ground(node):
                return "0"
            if node in port_map:
                return port_map[node]
            return f"{inst}.{node}"

        for model in self.circuit.models.values():
            target.add_model(model)
        # Subckts the definition itself expanded count as used at the
        # top too (the parser shares one subckt table across scopes).
        target._subckt_uses |= self.circuit._subckt_uses
        for dev in self.circuit.devices:
            node_map = {n: map_node(n) for n in dev.nodes}
            target.add(dev.renamed(f"{inst}.{dev.name}", node_map))
