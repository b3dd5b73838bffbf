"""Lint entry points: run rules over circuits, netlists and subckts.

Three front doors:

* :func:`lint_circuit` / :func:`lint_netlist` / :func:`lint_subckt` -
  produce a full :class:`~repro.spice.lint.report.LintReport`,
* :func:`preflight_check` - the gate the co-simulation path runs before
  any MNA assembly: error-severity rules only, raising
  :class:`~repro.spice.errors.NetlistLintError` (which names the
  offending rules and nodes) when anything fires.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.spice.errors import NetlistLintError
from repro.spice.lint.graph import CircuitGraph
from repro.spice.lint.report import LintFinding, LintReport, Severity
from repro.spice.lint.rules import LintRule, get_rules
from repro.spice.netlist import Circuit, Subckt


def _run_rules(graph: CircuitGraph,
               rules: Sequence[LintRule]) -> tuple[LintFinding, ...]:
    findings: list[LintFinding] = []
    for rule in rules:
        for message, nodes, devices in rule.check(graph):
            findings.append(LintFinding(
                rule_id=rule.rule_id, severity=rule.severity,
                title=rule.title, message=message,
                nodes=tuple(nodes), devices=tuple(devices)))
    findings.sort(key=lambda f: (-f.severity, f.rule_id, f.message))
    return tuple(findings)


def lint_circuit(circuit: Circuit, *,
                 rules: Sequence[str] | None = None,
                 min_severity: Severity | None = None,
                 external: Iterable[str] = ()) -> LintReport:
    """Statically verify *circuit* and return the full report.

    Args:
        circuit: a flat circuit (subckt instances are already expanded
            by ``Circuit.instantiate``).
        rules: restrict to these rule ids (default: all of them).
        min_severity: drop rules below this severity.
        external: nodes assumed driven from outside (subckt ports);
            structural rules skip anything reachable from them.
    """
    graph = CircuitGraph(circuit, external=external)
    selected = get_rules(rules, min_severity)
    findings = _run_rules(graph, selected)
    return LintReport(
        circuit=circuit.title,
        findings=findings,
        rules_run=tuple(r.rule_id for r in selected),
        n_devices=len(circuit.devices),
        n_nodes=len(graph.nodes))


def lint_netlist(text: str, *, title_line: bool = True) -> LintReport:
    """Parse Spice-format *text* and lint the resulting circuit.

    Raises:
        ParseError: the netlist does not parse (lint needs a circuit).
    """
    from repro.spice.parser import parse_netlist

    return lint_circuit(parse_netlist(text, title_line=title_line))


def lint_subckt(subckt: Subckt) -> LintReport:
    """Lint a subcircuit definition stand-alone.

    The definition is flattened once into a scratch circuit with its
    ports marked *external* (driven by the outside world), so
    floating/DC-path/island rules fire only on genuinely internal
    defects, while the dangling-port rule still sees the definition.
    """
    host = Circuit(f"subckt {subckt.name}")
    host.add_subckt(subckt)
    connections = list(subckt.ports)
    host.instantiate("uut", subckt, connections)
    return lint_circuit(host, external=connections)


def preflight_check(circuit: Circuit, *,
                    rules: Sequence[str] | None = None) -> LintReport:
    """Error-level static verification gate (used by co-simulation
    before any MNA assembly).

    Args:
        circuit: the circuit about to be simulated.
        rules: restrict to these rule ids (default: every error-level
            rule).

    Returns:
        The (clean) report when no error-severity finding fires.

    Raises:
        NetlistLintError: naming each offending rule and its nodes.
    """
    if rules is None:
        report = lint_circuit(circuit, min_severity=Severity.ERROR)
    else:
        report = lint_circuit(circuit, rules=rules)
    errors = report.errors
    if errors:
        details = "; ".join(
            f"{f.rule_id} ({', '.join(f.nodes) if f.nodes else f.title})"
            for f in errors)
        raise NetlistLintError(
            f"netlist {circuit.title!r} failed pre-flight lint with "
            f"{len(errors)} error(s): {details} - run "
            "`python -m repro lint` for the full report, or pass "
            "preflight=False to simulate anyway",
            report=report)
    return report
