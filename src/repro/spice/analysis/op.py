"""DC operating-point analysis."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.spice.mna import MnaSystem
from repro.spice.netlist import Circuit


@dataclass
class OpResult:
    """Operating-point solution.

    Attributes:
        system: the compiled MNA system (reusable for further analyses).
        x: raw solution vector (node voltages then branch currents).
    """

    system: MnaSystem
    x: np.ndarray

    def v(self, node: str) -> float:
        """Node voltage in volts."""
        return float(self.system.voltage(self.x, node))

    def vdiff(self, plus: str, minus: str) -> float:
        """Differential voltage ``v(plus) - v(minus)``."""
        return self.v(plus) - self.v(minus)

    def i(self, device: str) -> float:
        """Branch current of a voltage source."""
        return float(self.system.branch_current(self.x, device))

    def mos_info(self) -> dict[str, dict[str, float]]:
        """Per-MOSFET bias summary: ids, vgs, vds, region, gm, gds, gmb.

        Region codes: 0 = cutoff, 1 = triode, 2 = saturation.
        """
        group = self.system.mos_group
        if group is None:
            return {}
        ev = group.evaluate(self.system.full_vector(self.x))
        out: dict[str, dict[str, float]] = {}
        for idx, name in enumerate(group.names):
            out[name] = {
                "ids": float(ev.ids[idx]),
                "vgs": float(ev.vgs[idx]),
                "vds": float(ev.vds[idx]),
                "region": int(ev.region[idx]),
                "gm": float(ev.gm[idx]),
                "gds": float(ev.gds[idx]),
                "gmb": float(ev.gmb[idx]),
            }
        return out


def operating_point(circuit: Circuit,
                    initial_guess: Mapping[str, float] | None = None
                    ) -> OpResult:
    """Compute the DC operating point of *circuit*.

    Capacitors are open.  Uses Newton iteration with gmin- and
    source-stepping fallbacks.

    Args:
        circuit: the circuit to solve.
        initial_guess: optional per-node starting voltages (helps
            convergence of multi-stable analog circuits).
    """
    system = MnaSystem(circuit)
    x0 = None
    if initial_guess:
        x0 = np.zeros(system.size)
        for node, value in initial_guess.items():
            idx = system.node_index.get(node.lower())
            if idx is not None and idx < system.n_nodes:
                x0[idx] = value
    x = system.solve_robust(x0)
    return OpResult(system=system, x=x)
