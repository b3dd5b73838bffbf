"""Structured lint results: findings, severities and the report.

A lint run produces a :class:`LintReport` - an immutable, serializable
record of every :class:`LintFinding` the rule engine raised, plus enough
context (circuit title, node/device counts, rules run) to interpret it
without the circuit in hand.  Reports serialize reversibly through the
repository codec (:mod:`repro.core.serialization`), so the JSON emitted
by ``python -m repro lint --format json`` round-trips back into the
dataclasses, and render as stable human-readable text for terminals and
CI logs.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass

from repro.core.serialization import from_jsonable, to_jsonable


class Severity(enum.IntEnum):
    """Lint severity levels, ordered so comparisons read naturally
    (``Severity.ERROR > Severity.WARN > Severity.INFO``)."""

    INFO = 10
    WARN = 20
    ERROR = 30

    @property
    def label(self) -> str:
        """Lower-case name used in reports and CLI flags."""
        return self.name.lower()

    @classmethod
    def from_label(cls, label: str) -> "Severity":
        try:
            return cls[label.upper()]
        except KeyError:
            raise ValueError(
                f"unknown severity {label!r}; choose from "
                f"{', '.join(s.label for s in cls)}") from None


@dataclass(frozen=True)
class LintFinding:
    """One defect (or observation) raised by a lint rule.

    Attributes:
        rule_id: stable rule identifier (e.g. ``SP-FLOAT-001``).
        severity: :class:`Severity` of the rule that fired.
        title: the rule's one-line description.
        message: instance-specific explanation.
        nodes: offending node names (normalized), if any.
        devices: offending device names, if any.
    """

    rule_id: str
    severity: Severity
    title: str
    message: str
    nodes: tuple[str, ...] = ()
    devices: tuple[str, ...] = ()

    def format(self) -> str:
        where = ""
        if self.nodes:
            where += f" nodes: {', '.join(self.nodes)}"
        if self.devices:
            where += f" devices: {', '.join(self.devices)}"
        return (f"[{self.severity.label:<5s}] {self.rule_id}: "
                f"{self.message}{' |' + where if where else ''}")


@dataclass(frozen=True)
class LintReport:
    """Outcome of linting one circuit.

    Attributes:
        circuit: the circuit's title.
        findings: every finding, most severe first.
        rules_run: ids of the rules that executed.
        n_devices / n_nodes: size of the (flattened) circuit.
    """

    circuit: str
    findings: tuple[LintFinding, ...] = ()
    rules_run: tuple[str, ...] = ()
    n_devices: int = 0
    n_nodes: int = 0

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def ok(self) -> bool:
        """True when no error-severity finding was raised."""
        return not self.errors

    @property
    def errors(self) -> tuple[LintFinding, ...]:
        return self.at_severity(Severity.ERROR)

    def at_severity(self, severity: Severity) -> tuple[LintFinding, ...]:
        return tuple(f for f in self.findings if f.severity == severity)

    def at_least(self, severity: Severity) -> tuple[LintFinding, ...]:
        """Findings at or above *severity*."""
        return tuple(f for f in self.findings if f.severity >= severity)

    def counts(self) -> dict[str, int]:
        """``{"error": n, "warn": n, "info": n}``."""
        return {s.label: len(self.at_severity(s))
                for s in sorted(Severity, reverse=True)}

    def worst(self) -> Severity | None:
        """Highest severity present, or ``None`` for a clean report."""
        return max((f.severity for f in self.findings), default=None)

    # ------------------------------------------------------------------
    # rendering
    # ------------------------------------------------------------------
    def format_text(self) -> str:
        """Human-readable multi-line report."""
        head = (f"lint {self.circuit or '<untitled>'}: "
                f"{self.n_devices} devices, {self.n_nodes} nodes, "
                f"{len(self.rules_run)} rules")
        counts = ", ".join(f"{n} {label}" for label, n
                           in self.counts().items() if n)
        lines = [head]
        for finding in self.findings:
            lines.append("  " + finding.format())
        lines.append(f"result: {'CLEAN' if self.ok else 'FAIL'}"
                     f"{' (' + counts + ')' if counts else ''}")
        return "\n".join(lines)

    def to_json(self) -> str:
        """Reversible JSON via the repository serialization codec."""
        return json.dumps(to_jsonable(self), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "LintReport":
        """Inverse of :meth:`to_json`."""
        report = from_jsonable(json.loads(text))
        if not isinstance(report, cls):
            raise ValueError(f"payload decodes to "
                             f"{type(report).__name__}, not {cls.__name__}")
        return report
