"""Rendering and JSON persistence for the observability layer.

:mod:`repro.obs.trace` and :mod:`repro.obs.metrics` are stdlib-only
by contract; everything that touches :mod:`repro.core.serialization`
(and therefore NumPy) lives here instead:

* :class:`TraceReport` - one traced experiment run (span tree +
  metrics snapshot) as a format-tagged, reversible JSON document
  (``repro.trace/2``), the payload of ``repro trace --format json``.
* :func:`render_trace` - the flame-style text tree.
* :func:`format_bytes` - the human-readable byte formatter shared by
  ``repro cache clear``/``gc`` and ``repro stats``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core import serialization
from .metrics import MetricsSnapshot
from .trace import SpanNode

__all__ = ["TRACE_FORMAT", "TraceReport", "format_bytes",
           "render_trace"]

TRACE_FORMAT = "repro.trace/2"

_UNITS = ("B", "KiB", "MiB", "GiB", "TiB")


def format_bytes(n: int | float) -> str:
    """Human-readable byte size: ``512 B``, ``1.5 KiB``, ``2.3 MiB``.

    One decimal place above bytes, exact below 1 KiB; never switches
    to a unit that would round to 1024 of the smaller one.
    """
    size = float(n)
    for unit in _UNITS[:-1]:
        if abs(size) < 1024.0:
            if unit == "B":
                return f"{int(size)} B"
            return f"{size:.1f} {unit}"
        size /= 1024.0
    return f"{size:.1f} {_UNITS[-1]}"


@dataclass
class TraceReport:
    """One traced run: experiment name, span tree, metrics.

    ``root.total_s`` is the total traced wall; ``stage_walls`` (a
    convenience copy of the leaf breakdown) is stored explicitly so
    JSON consumers need not re-derive it from the tree.
    """

    experiment: str
    root: SpanNode
    metrics: MetricsSnapshot = field(default_factory=MetricsSnapshot)
    stage_walls: dict[str, float] = field(default_factory=dict)

    @classmethod
    def from_run(cls, experiment: str, root: SpanNode,
                 metrics: MetricsSnapshot | None = None
                 ) -> "TraceReport":
        return cls(experiment=experiment, root=root,
                   metrics=metrics or MetricsSnapshot(),
                   stage_walls=root.leaf_walls())

    @property
    def wall_s(self) -> float:
        return self.root.total_s

    def to_json(self) -> str:
        return serialization.dump_tagged(TRACE_FORMAT, self, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "TraceReport":
        report = serialization.load_tagged(TRACE_FORMAT, text)
        if not isinstance(report, cls):
            raise ValueError(
                f"expected a {cls.__name__} payload, found "
                f"{type(report).__name__}")
        return report


def _render_node(node: SpanNode, root_wall: float, depth: int,
                 lines: list[str]) -> None:
    share = (f"{100.0 * node.total_s / root_wall:5.1f}%"
             if root_wall > 0 else "    -")
    count = f" x{node.count}" if node.count > 1 else ""
    lines.append(f"{'  ' * depth}{node.name:<{max(1, 40 - 2 * depth)}}"
                 f" {node.total_s * 1e3:9.2f} ms  {share}{count}")
    for child in node.children.values():
        _render_node(child, root_wall, depth + 1, lines)


def render_trace(root: SpanNode, *, title: str | None = None) -> str:
    """Flame-style indented text tree of *root*.

    Each line shows span name, accumulated wall, share of the root
    wall, and the aggregate enter count; a trailing coverage line
    reports how much of the total wall the leaf spans explain.
    """
    lines: list[str] = []
    if title:
        lines.append(title)
    _render_node(root, root.total_s, 0, lines)
    lines.append(f"coverage: {100.0 * root.coverage():.1f}% of "
                 f"{root.total_s * 1e3:.2f} ms explained by "
                 "leaf spans")
    return "\n".join(lines)
