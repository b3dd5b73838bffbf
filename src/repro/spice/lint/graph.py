"""The circuit graph behind static netlist verification.

:class:`CircuitGraph` flattens a :class:`~repro.spice.netlist.Circuit`
(already flat - subcircuit instances expand eagerly through
``Subckt.flatten_into``) into an undirected node/device incidence
structure with normalized node names (``0``/``gnd``/``GND``/``vss!``
all collapse to ``"0"`` through the same
:func:`~repro.spice.netlist.normalize_node` the MNA node numbering
uses, so lint and simulator always agree on connectivity).

Two edge views drive the rules:

* **structural** edges - every device connects all of its terminals
  (even high-impedance sense pins); used for island detection,
* **DC-conduction** edges - only terminal pairs that carry direct
  current (resistors, inductors, sources' branches, switch channels,
  MOSFET drain/source/bulk junctions, diodes); capacitors, current
  sources, MOS gates and controlled-source sense pins conduct nothing,
  so capacitor-only cuts and gate-only nets show up as DC-floating.

Nodes listed in ``external`` (subcircuit ports of a definition linted
stand-alone) are assumed to be driven by the outside world: rules skip
floating/DC-path/island diagnostics for anything reachable from them.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator

from repro.spice.devices.base import Device
from repro.spice.devices.controlled import Vccs, Vcvs
from repro.spice.devices.diode import Diode
from repro.spice.devices.mosfet import Mosfet
from repro.spice.devices.passives import Inductor, Resistor
from repro.spice.devices.sources import CurrentSource, VoltageSource
from repro.spice.devices.switch import VSwitch
from repro.spice.netlist import Circuit, normalize_node

#: the normalized global reference node.
GROUND = "0"

EdgeFn = Callable[[Device], Iterable[tuple[str, str]]]


def structural_edges(dev: Device) -> Iterator[tuple[str, str]]:
    """Every terminal of a device is structurally connected to the
    others (a chain suffices for union-find connectivity)."""
    nodes = dev.nodes
    for a, b in zip(nodes, nodes[1:]):
        yield a, b


def dc_edges(dev: Device) -> Iterator[tuple[str, str]]:
    """Terminal pairs of *dev* that conduct direct current."""
    if isinstance(dev, (Resistor, Inductor, Diode, VoltageSource)):
        yield dev.n1, dev.n2
    elif isinstance(dev, VSwitch):
        # ron/roff are both finite; the channel always conducts some DC.
        yield dev.n1, dev.n2
    elif isinstance(dev, Vcvs):
        # The controlled branch pins n1-n2; the sense pins are open.
        yield dev.n1, dev.n2
    elif isinstance(dev, Mosfet):
        # Channel plus junctions: drain/source/bulk form a DC-connected
        # cluster; the gate is purely capacitive.
        yield dev.d, dev.s
        yield dev.s, dev.b
    # Capacitor, CurrentSource, Vccs: no DC conduction at all.


def non_current_source_edges(dev: Device) -> Iterator[tuple[str, str]]:
    """Structural edges of everything except current-source branches
    (independent and voltage-controlled) - the graph whose cut
    components expose current-source cutsets."""
    if isinstance(dev, (CurrentSource, Vccs)):
        return
    yield from structural_edges(dev)


class _UnionFind:
    def __init__(self, items: Iterable[str]):
        self.parent = {item: item for item in items}

    def find(self, item: str) -> str:
        parent = self.parent
        root = item
        while parent[root] != root:
            root = parent[root]
        while parent[item] != root:  # path compression
            parent[item], item = root, parent[item]
        return root

    def union(self, a: str, b: str) -> bool:
        """Merge the sets of *a* and *b*; False if already merged."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[ra] = rb
        return True


class CircuitGraph:
    """Incidence view of a flat circuit for the lint rules.

    Args:
        circuit: the (flat) circuit to analyze.
        external: node names treated as externally driven (subckt
            ports); normalized on entry.
    """

    def __init__(self, circuit: Circuit, external: Iterable[str] = ()):
        self.circuit = circuit
        self.external = frozenset(normalize_node(n) for n in external)
        # node -> [(device, terminal_index)] in insertion order
        self._attach: dict[str, list[tuple[Device, int]]] = {}
        for dev in circuit.devices:
            for idx, node in enumerate(dev.nodes):
                self._attach.setdefault(node, []).append((dev, idx))
        # External nodes exist even when no device touches them yet
        # (a dangling port binding).
        for node in self.external:
            self._attach.setdefault(node, [])

    # ------------------------------------------------------------------
    # node queries
    # ------------------------------------------------------------------
    @property
    def nodes(self) -> list[str]:
        """All nodes (including ground when referenced)."""
        return list(self._attach)

    @property
    def has_ground(self) -> bool:
        return GROUND in self._attach and bool(self._attach[GROUND])

    def degree(self, node: str) -> int:
        """Number of device terminals attached to *node*."""
        return len(self._attach.get(normalize_node(node), ()))

    def devices_at(self, node: str) -> list[Device]:
        """Devices with at least one terminal on *node* (deduplicated,
        insertion order)."""
        seen: dict[int, Device] = {}
        for dev, _idx in self._attach.get(normalize_node(node), ()):
            seen.setdefault(id(dev), dev)
        return list(seen.values())

    def is_external(self, node: str) -> bool:
        return normalize_node(node) in self.external

    # ------------------------------------------------------------------
    # connectivity
    # ------------------------------------------------------------------
    def components(self, edges: EdgeFn) -> list[set[str]]:
        """Connected components of the node set under *edges*.

        Args:
            edges: per-device edge generator (e.g.
                :func:`structural_edges` or :func:`dc_edges`).
        """
        uf = _UnionFind(self._attach)
        for dev in self.circuit.devices:
            for a, b in edges(dev):
                uf.union(a, b)
        groups: dict[str, set[str]] = {}
        for node in self._attach:
            groups.setdefault(uf.find(node), set()).add(node)
        return list(groups.values())

    def structural_components(self) -> list[set[str]]:
        return self.components(structural_edges)

    def dc_components(self) -> list[set[str]]:
        return self.components(dc_edges)

    def anchored(self, component: set[str]) -> bool:
        """True if *component* touches ground or an external node
        (i.e. the outside world can define its potentials)."""
        if GROUND in component:
            return True
        return bool(self.external & component)

    def __repr__(self) -> str:
        return (f"CircuitGraph({self.circuit.title!r}, "
                f"{len(self.circuit.devices)} devices, "
                f"{len(self._attach)} nodes)")
