"""Graph-based static netlist verification (the circuit-QA toolkit).

The pre-deployment discipline of large instrument papers applied to
netlists: flatten the circuit into a graph, prove structural sanity
*before* burning simulator time, and certify the shipped circuits
clean.  A malformed receiver netlist used to surface as an opaque
singular-matrix error deep inside a transient solve; it now fails fast
with a named rule and the offending nodes.

Three layers:

* :mod:`repro.spice.lint.graph` - :class:`CircuitGraph` flattens a
  circuit into node/device adjacency with normalized ground aliases and
  structural vs. DC-conduction edge views,
* :mod:`repro.spice.lint.rules` - the :data:`RULES` catalog with
  stable ids (``SP-FLOAT-001``, ...) and severities,
* :mod:`repro.spice.lint.engine` / :mod:`~repro.spice.lint.report` -
  entry points producing serializable :class:`LintReport` values, plus
  the :func:`preflight_check` gate raising
  :class:`~repro.spice.errors.NetlistLintError`.

Wired in at three places: ``python -m repro lint`` (CLI verb), the
:class:`~repro.ams.cosim.SpiceBlock` pre-flight (opt out with
``preflight=False``), and the built-in circuit certification tests.
"""

from repro.spice.errors import NetlistLintError
from repro.spice.lint.engine import (
    lint_circuit,
    lint_netlist,
    lint_subckt,
    preflight_check,
)
from repro.spice.lint.graph import (
    CircuitGraph,
    dc_edges,
    non_current_source_edges,
    structural_edges,
)
from repro.spice.lint.report import LintFinding, LintReport, Severity
from repro.spice.lint.rules import RULES, LintRule, get_rules

__all__ = [
    "CircuitGraph",
    "LintFinding",
    "LintReport",
    "LintRule",
    "RULES",
    "NetlistLintError",
    "Severity",
    "dc_edges",
    "get_rules",
    "lint_circuit",
    "lint_netlist",
    "lint_subckt",
    "non_current_source_edges",
    "preflight_check",
    "structural_edges",
]
