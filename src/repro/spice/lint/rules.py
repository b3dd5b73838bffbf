"""The lint rules: one catalog of stable ids, severities and checks.

A rule is a generator over a :class:`~repro.spice.lint.graph.CircuitGraph`
yielding ``(message, nodes, devices)`` triples; the engine stamps them
with the rule's stable id and severity into
:class:`~repro.spice.lint.report.LintFinding` values.  :data:`RULES`
lists every rule in catalog order; a new rule is a check function
plus one :class:`LintRule` row there::

    def _rule_my_check(graph):
        for node in graph.nodes:
            if looks_odd(node):
                yield f"node {node!r} looks odd", (node,), ()

    LintRule("SP-MYRULE-001", Severity.WARN, "my description",
             _rule_my_check),

Rule ids are part of the public contract: reports, the CLI ``--fail-on``
gate and the cosim pre-flight all reference them, so ids never change
meaning once shipped.

Built-in rules
==============

========================  ========  =======================================
id                        severity  defect
========================  ========  =======================================
``SP-GND-001``            error     no ground reference anywhere
``SP-FLOAT-001``          error     floating node (fewer than 2 terminals)
``SP-DCPATH-001``         error     no DC path to ground (capacitor /
                                    current-source / gate-only cut)
``SP-ISLAND-001``         error     island disconnected from ground
``SP-PORT-001``           error     dangling subcircuit port
``SP-SHORT-001``          warn      two-terminal device shorted on one net
``SP-SHORT-002``          error     voltage source shorted on one net
``SP-VALUE-001``          error     zero/negative passive value
``SP-VLOOP-001``          error     loop of voltage sources
``SP-ICUT-001``           error     current-source cutset
``SP-MODEL-001``          error     device references a missing model card
``SP-UNUSED-001``         info      model card never referenced
``SP-UNUSED-002``         info      subcircuit defined but never used
========================  ========  =======================================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from repro.spice.devices.base import Device
from repro.spice.devices.mosfet import Mosfet
from repro.spice.devices.passives import Capacitor, Resistor
from repro.spice.devices.sources import CurrentSource, VoltageSource
from repro.spice.lint.graph import (
    GROUND,
    CircuitGraph,
    _UnionFind,
    non_current_source_edges,
)
from repro.spice.lint.report import Severity
from repro.spice.netlist import normalize_node

#: a rule yields (message, offending nodes, offending devices).
RuleOutput = Iterator[tuple[str, tuple[str, ...], tuple[str, ...]]]
RuleFn = Callable[[CircuitGraph], RuleOutput]


@dataclass(frozen=True)
class LintRule:
    """A lint rule (id + severity + check function)."""

    rule_id: str
    severity: Severity
    title: str
    check: RuleFn


def get_rules(ids: Sequence[str] | None = None,
              min_severity: Severity | None = None) -> tuple[LintRule, ...]:
    """Select rules by id and/or severity floor.

    Args:
        ids: explicit rule ids (default: every rule in :data:`RULES`).
        min_severity: drop rules below this severity.

    Raises:
        KeyError: an id in *ids* is not in :data:`RULES`.
    """
    by_id = {rule.rule_id: rule for rule in RULES}
    if ids is None:
        selected = list(RULES)
    else:
        missing = [i for i in ids if i not in by_id]
        if missing:
            raise KeyError(
                f"unknown lint rule(s) {', '.join(missing)}; known: "
                f"{', '.join(by_id)}")
        selected = [by_id[i] for i in ids]
    if min_severity is not None:
        selected = [r for r in selected if r.severity >= min_severity]
    return tuple(selected)


def _sorted_nodes(nodes: Iterable[str]) -> tuple[str, ...]:
    return tuple(sorted(nodes))


def _device_names(devices: Iterable[Device]) -> tuple[str, ...]:
    return tuple(sorted(dev.name for dev in devices))


def _attached(graph: CircuitGraph, component: set[str]) -> list[Device]:
    seen: dict[int, Device] = {}
    for node in component:
        for dev in graph.devices_at(node):
            seen.setdefault(id(dev), dev)
    return list(seen.values())


# ----------------------------------------------------------------------
# built-in rules
# ----------------------------------------------------------------------

def _rule_ground(graph: CircuitGraph) -> RuleOutput:
    if not graph.circuit.devices:
        return
    if graph.external:
        # A stand-alone subckt may take its reference through a port.
        return
    if not graph.has_ground:
        yield ("no device connects to the global reference "
               "('0'/'gnd')", (), ())


def _rule_floating(graph: CircuitGraph) -> RuleOutput:
    for node in graph.nodes:
        if node == GROUND or graph.is_external(node):
            continue
        degree = graph.degree(node)
        if degree < 2:
            devices = graph.devices_at(node)
            yield (f"node {node!r} has {degree} connection"
                   f"{'' if degree == 1 else 's'} (needs >= 2)",
                   (node,), _device_names(devices))


def _rule_dc_path(graph: CircuitGraph) -> RuleOutput:
    if not graph.has_ground and not graph.external:
        return  # SP-GND-001 already covers the whole circuit
    for component in graph.dc_components():
        if graph.anchored(component):
            continue
        cut = _attached(graph, component)
        yield (f"node(s) {', '.join(_sorted_nodes(component))} have no "
               "DC path to ground (separated by capacitors, current "
               "sources or high-impedance pins)",
               _sorted_nodes(component), _device_names(cut))


def _rule_island(graph: CircuitGraph) -> RuleOutput:
    if not graph.has_ground and not graph.external:
        return  # no anchor anywhere: SP-GND-001 covers it
    for component in graph.structural_components():
        if graph.anchored(component):
            continue
        island = _attached(graph, component)
        yield (f"island of {len(island)} device(s) on node(s) "
               f"{', '.join(_sorted_nodes(component))} is disconnected "
               "from the rest of the circuit",
               _sorted_nodes(component), _device_names(island))


def _rule_dangling_port(graph: CircuitGraph) -> RuleOutput:
    for subckt in graph.circuit.subckts.values():
        used: set[str] = set()
        for dev in subckt.circuit.devices:
            used.update(normalize_node(n) for n in dev.nodes)
        for port in subckt.ports:
            if normalize_node(port) not in used:
                yield (f"subckt {subckt.name!r} port {port!r} is not "
                       "connected to any internal device",
                       (port,), ())


def _rule_shorted(graph: CircuitGraph) -> RuleOutput:
    for dev in graph.circuit.devices:
        if isinstance(dev, VoltageSource):
            continue  # SP-SHORT-002 (an error) handles sources
        n1 = getattr(dev, "n1", None)
        n2 = getattr(dev, "n2", None)
        if n1 is not None and n1 == n2:
            yield (f"{type(dev).__name__} {dev.name!r} has both "
                   f"terminals on node {n1!r} (no effect)",
                   (n1,), (dev.name,))


def _rule_shorted_source(graph: CircuitGraph) -> RuleOutput:
    for dev in graph.circuit.devices:
        if isinstance(dev, VoltageSource) and dev.n1 == dev.n2:
            yield (f"voltage source {dev.name!r} shorts node "
                   f"{dev.n1!r} to itself (contradictory constraint)",
                   (dev.n1,), (dev.name,))


def _rule_passive_values(graph: CircuitGraph) -> RuleOutput:
    for dev in graph.circuit.devices:
        if isinstance(dev, (Resistor, Capacitor)) and dev.value <= 0.0:
            yield (f"{type(dev).__name__} {dev.name!r} has "
                   f"non-positive value {dev.value!r}",
                   _sorted_nodes(set(dev.nodes)), (dev.name,))


def _rule_voltage_loop(graph: CircuitGraph) -> RuleOutput:
    """A cycle whose edges are all voltage sources over-constrains the
    node potentials: MNA goes singular (or resolves an inconsistency by
    infinite current)."""
    uf = _UnionFind(graph.nodes)
    for dev in graph.circuit.devices:
        if not isinstance(dev, VoltageSource):
            continue
        if dev.n1 == dev.n2:
            continue  # SP-SHORT-002 reports the degenerate case
        if not uf.union(dev.n1, dev.n2):
            yield (f"voltage branch {dev.name!r} ({dev.n1!r}-"
                   f"{dev.n2!r}) closes a loop of voltage sources",
                   (dev.n1, dev.n2), (dev.name,))


def _rule_current_cutset(graph: CircuitGraph) -> RuleOutput:
    """A node group fed *only* through current sources has no way to
    satisfy KCL for an arbitrary source value (ELDO/Spice: 'current
    source cutset')."""
    isources = [dev for dev in graph.circuit.devices
                if isinstance(dev, CurrentSource)]
    if not isources:
        return
    for component in graph.components(non_current_source_edges):
        if graph.anchored(component):
            continue
        cut = [dev for dev in isources
               if any(normalize_node(n) in component for n in dev.nodes)]
        if cut:
            yield (f"node(s) {', '.join(_sorted_nodes(component))} "
                   "connect to the rest of the circuit only through "
                   "current source(s)",
                   _sorted_nodes(component), _device_names(cut))


def _rule_missing_model(graph: CircuitGraph) -> RuleOutput:
    models = graph.circuit.models
    for dev in graph.circuit.devices:
        if isinstance(dev, Mosfet) and dev.model not in models:
            yield (f"{type(dev).__name__} {dev.name!r} references "
                   f"undefined model {dev.model!r}",
                   (), (dev.name,))


def _rule_unused_model(graph: CircuitGraph) -> RuleOutput:
    used = {dev.model for dev in graph.circuit.devices
            if isinstance(dev, Mosfet)}
    for subckt in graph.circuit.subckts.values():
        used.update(dev.model for dev in subckt.circuit.devices
                    if isinstance(dev, Mosfet))
    for name in graph.circuit.models:
        if name not in used:
            yield (f"model card {name!r} is never referenced", (), ())


def _rule_unused_subckt(graph: CircuitGraph) -> RuleOutput:
    uses = getattr(graph.circuit, "_subckt_uses", set())
    for name in graph.circuit.subckts:
        if name not in uses:
            yield (f"subckt {name!r} is defined but never instantiated",
                   (), ())


#: every rule, in catalog order (the module docstring's table).
RULES: tuple[LintRule, ...] = (
    LintRule("SP-GND-001", Severity.ERROR,
             "circuit has no ground reference", _rule_ground),
    LintRule("SP-FLOAT-001", Severity.ERROR,
             "floating node (fewer than two connections)", _rule_floating),
    LintRule("SP-DCPATH-001", Severity.ERROR,
             "no DC path to ground (capacitor-only cut)", _rule_dc_path),
    LintRule("SP-ISLAND-001", Severity.ERROR,
             "isolated component island", _rule_island),
    LintRule("SP-PORT-001", Severity.ERROR,
             "dangling subcircuit port", _rule_dangling_port),
    LintRule("SP-SHORT-001", Severity.WARN,
             "two-terminal device shorted (both terminals on one net)",
             _rule_shorted),
    LintRule("SP-SHORT-002", Severity.ERROR,
             "voltage source shorted (both terminals on one net)",
             _rule_shorted_source),
    LintRule("SP-VALUE-001", Severity.ERROR,
             "zero or negative passive value", _rule_passive_values),
    LintRule("SP-VLOOP-001", Severity.ERROR,
             "loop of voltage sources", _rule_voltage_loop),
    LintRule("SP-ICUT-001", Severity.ERROR,
             "current-source cutset", _rule_current_cutset),
    LintRule("SP-MODEL-001", Severity.ERROR,
             "device references a missing model card", _rule_missing_model),
    LintRule("SP-UNUSED-001", Severity.INFO,
             "model card never referenced", _rule_unused_model),
    LintRule("SP-UNUSED-002", Severity.INFO,
             "subcircuit defined but never used", _rule_unused_subckt),
)
