"""DC sweep analysis."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.spice.errors import AnalysisError, ConvergenceError
from repro.spice.mna import MnaSystem
from repro.spice.netlist import Circuit, normalize_node


@dataclass
class DcSweepResult:
    """Result of a DC source sweep.

    Attributes:
        source: name of the swept source.
        values: swept source values.
        x: solution matrix, one row per sweep point.
    """

    system: MnaSystem
    source: str
    values: np.ndarray
    x: np.ndarray

    def v(self, node: str) -> np.ndarray:
        """Voltage trace of *node* across the sweep."""
        node = normalize_node(node)
        if node == "0":
            return np.zeros(len(self.values))
        return self.x[:, self.system.node_index[node]].copy()

    def vdiff(self, plus: str, minus: str) -> np.ndarray:
        return self.v(plus) - self.v(minus)

    def i(self, device: str) -> np.ndarray:
        return self.x[:, self.system.branch_index[device.lower()]].copy()


def dc_sweep(circuit: Circuit, source: str,
             values: Sequence[float]) -> DcSweepResult:
    """Sweep the DC value of one independent source.

    Each point starts Newton from the previous solution (continuation),
    which makes sweeps through nonlinear transfer curves robust.

    Args:
        circuit: circuit to analyze.
        source: device name of the swept V or I source.
        values: sweep values (any monotonicity).
    """
    source = source.lower()
    if not circuit.has_device(source):
        raise AnalysisError(f"dc_sweep: no source named {source!r}")
    system = MnaSystem(circuit)
    values = np.asarray(values, dtype=float)
    solutions = np.empty((len(values), system.size))
    x = None
    for k, val in enumerate(values):
        ov = {source: float(val)}
        try:
            x = system.newton(x, overrides=ov)
        except ConvergenceError:
            x = system.solve_robust(x, overrides=ov)
        solutions[k] = x
    return DcSweepResult(system=system, source=source,
                         values=values, x=solutions)
