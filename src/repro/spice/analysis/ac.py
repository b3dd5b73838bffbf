"""AC small-signal analysis.

The circuit is linearized at its DC operating point; the complex system
``(G + j*w*C) x = b_ac`` is then solved for every requested frequency.
All frequency points are solved in one batched ``numpy.linalg.solve``
call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.spice.analysis.op import OpResult, operating_point
from repro.spice.errors import AnalysisError
from repro.spice.mna import MnaSystem
from repro.spice.netlist import Circuit, normalize_node


@dataclass
class AcResult:
    """Complex small-signal response versus frequency.

    Attributes:
        freqs: frequency grid in Hz.
        x: complex solution matrix (one row per frequency).
        op: the underlying DC operating point.
    """

    system: MnaSystem
    freqs: np.ndarray
    x: np.ndarray
    op: OpResult

    def v(self, node: str) -> np.ndarray:
        """Complex node voltage across frequency."""
        node = normalize_node(node)
        if node == "0":
            return np.zeros(len(self.freqs), dtype=complex)
        return self.x[:, self.system.node_index[node]].copy()

    def vdiff(self, plus: str, minus: str) -> np.ndarray:
        return self.v(plus) - self.v(minus)

    def mag_db(self, node: str, ref: str | None = None) -> np.ndarray:
        """Magnitude in dB of ``v(node)`` (or ``v(node) - v(ref)``)."""
        h = self.v(node) if ref is None else self.vdiff(node, ref)
        return 20.0 * np.log10(np.maximum(np.abs(h), 1e-30))

    def phase_deg(self, node: str) -> np.ndarray:
        """Phase in degrees of ``v(node)``."""
        return np.degrees(np.angle(self.v(node)))

    def i(self, device: str) -> np.ndarray:
        return self.x[:, self.system.branch_index[device.lower()]].copy()


def logspace_freqs(f_start: float, f_stop: float,
                   points_per_decade: int = 20) -> np.ndarray:
    """Logarithmic frequency grid like Spice ``.AC DEC``."""
    if f_start <= 0 or f_stop <= f_start:
        raise AnalysisError("logspace_freqs: need 0 < f_start < f_stop")
    decades = np.log10(f_stop / f_start)
    n = max(2, int(round(decades * points_per_decade)) + 1)
    return np.logspace(np.log10(f_start), np.log10(f_stop), n)


def ac_analysis(circuit: Circuit, freqs: Sequence[float],
                op: OpResult | None = None,
                initial_guess: Mapping[str, float] | None = None
                ) -> AcResult:
    """Small-signal AC analysis over the frequency grid *freqs*.

    Sources with a nonzero ``ac_mag`` drive the linearized circuit; all
    other independent sources are nulled (V shorts, I opens), as in Spice.

    Args:
        circuit: circuit to analyze.
        op: reuse a previously computed operating point.
        initial_guess: forwarded to the OP solve.
    """
    if op is None:
        op = operating_point(circuit, initial_guess=initial_guess)
    system = op.system
    g_mat, c_mat = system.small_signal_matrices(op.x)
    freqs = np.asarray(freqs, dtype=float)
    if np.any(freqs <= 0):
        raise AnalysisError("ac_analysis: frequencies must be positive")

    n = system.size
    b_ac = np.zeros(n, dtype=complex)
    has_stimulus = False
    for src in system.vsources:
        if src.ac_mag:
            b_ac[system.branch_index[src.name]] += src.ac_complex
            has_stimulus = True
    from repro.spice.devices.sources import CurrentSource

    for src in circuit.devices_of(CurrentSource):
        if src.ac_mag:
            a = system.node_index[src.n1]
            c = system.node_index[src.n2]
            phasor = src.ac_complex
            if a < n:
                b_ac[a] -= phasor
            if c < n:
                b_ac[c] += phasor
            has_stimulus = True
    if not has_stimulus:
        raise AnalysisError(
            "ac_analysis: no source has an AC magnitude set")

    omega = 2.0 * np.pi * freqs
    a_stack = (g_mat[None, :, :].astype(complex)
               + 1j * omega[:, None, None] * c_mat[None, :, :])
    b_stack = np.broadcast_to(b_ac[:, None], (len(freqs), n, 1)).copy()
    x = np.linalg.solve(a_stack, b_stack)[:, :, 0]
    return AcResult(system=system, freqs=freqs, x=x, op=op)
