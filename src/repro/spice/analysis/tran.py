"""Transient analysis.

Implements fixed-step implicit integration (backward Euler or
trapezoidal) with capacitor companion models, Newton solution at each
step, and automatic sub-stepping when an individual step fails to
converge.

:class:`TransientStepper` exposes the integration loop one step at a
time with per-step source overrides; this is the mechanism the
mixed-signal kernel (:mod:`repro.ams.cosim`) uses to embed a transistor
netlist inside a system simulation, mirroring the ADMS/Eldo
substitute-and-play flow of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.spice.devices.mosfet import MosEval
from repro.spice.errors import AnalysisError, ConvergenceError
from repro.spice.mna import MnaSystem, branch_entry, node_entry
from repro.spice.netlist import Circuit, normalize_node

#: Transient steps split into sub-steps after a Newton failure.
_SUBSTEPS = _metrics.REGISTRY.counter("spice.newton.substeps")


@dataclass
class TranResult:
    """Recorded transient waveforms.

    Attributes:
        t: time points (s).
        voltages: node-name -> waveform array.
        currents: source-name -> branch-current waveform array.
    """

    t: np.ndarray
    voltages: dict[str, np.ndarray]
    currents: dict[str, np.ndarray]

    def v(self, node: str) -> np.ndarray:
        return node_entry(self.voltages, node, np.zeros_like(self.t))

    def vdiff(self, plus: str, minus: str) -> np.ndarray:
        return self.v(plus) - self.v(minus)

    def i(self, device: str) -> np.ndarray:
        return branch_entry(self.currents, device)

    def at(self, node: str, time: float) -> float:
        """Linear-interpolated node voltage at *time*."""
        return float(np.interp(time, self.t, self.v(node)))


class TransientStepper:
    """Resumable fixed-step transient integrator.

    Args:
        circuit: circuit to integrate.
        dt: fixed time step (s).
        method: ``"trap"`` (trapezoidal) or ``"be"`` (backward Euler).
        overrides: initial source-value overrides (by device name); they
            persist until changed via :meth:`set_source`.
        initial_guess: node-voltage hints for the initial DC solve.
    """

    def __init__(self, circuit: Circuit, dt: float, method: str = "trap",
                 overrides: Mapping[str, float] | None = None,
                 initial_guess: Mapping[str, float] | None = None):
        if dt <= 0:
            raise AnalysisError("TransientStepper: dt must be positive")
        if method not in ("trap", "be"):
            raise AnalysisError(f"unknown integration method {method!r}")
        self.system = MnaSystem(circuit)
        self.dt = float(dt)
        self.method = method
        self.overrides: dict[str, float] = {
            k.lower(): float(v) for k, v in (overrides or {}).items()}
        self.t = 0.0

        x_init = None
        if initial_guess:
            x_init = np.zeros(self.system.size)
            for node, val in initial_guess.items():
                idx = self.system.node_index.get(node.lower())
                if idx is not None and idx < self.system.n_nodes:
                    x_init[idx] = val
        self.x = self.system.solve_robust(
            x_init, overrides=self.overrides, t=0.0)

        self._refresh_caps()
        self.i_cap = np.zeros(len(self.c_val))
        #: Newton iterations of every accepted step and sub-step.
        self.newton_iterations = 0
        self.steps_taken = 0

    # ------------------------------------------------------------------
    def _refresh_caps(self, mos_eval: MosEval | None = None) -> None:
        """Re-derive the state that depends on :attr:`x` from its MOSFET
        evaluation *mos_eval* (evaluated at :attr:`x` when omitted): the
        capacitance values and the capacitor voltages.  *mos_eval* is
        also kept for the first Newton iteration of the next step.
        After a step it is the converged Newton call's final evaluation
        (:attr:`MnaSystem.last_mos_eval`), not one at :attr:`x`
        itself."""
        sys = self.system
        x_full = sys.full_vector(self.x)
        if mos_eval is None and sys.mos_group is not None:
            mos_eval = sys.mos_group.evaluate(x_full)
        self._mos_eval = mos_eval
        self.c_val = sys.dynamic_caps(x_full, mos_eval)
        self.v_cap = x_full[sys.dyn_n1] - x_full[sys.dyn_n2]

    def set_source(self, name: str, value: float) -> None:
        """Override the value of an independent source from now on."""
        self.overrides[name.lower()] = float(value)

    def v(self, node: str) -> float:
        """Present node voltage."""
        return float(self.system.voltage(self.x, node))

    def vdiff(self, plus: str, minus: str) -> float:
        return self.v(plus) - self.v(minus)

    def i(self, device: str) -> float:
        return float(self.system.branch_current(self.x, device))

    # ------------------------------------------------------------------
    @_trace.timed("spice.step")
    def step(self) -> None:
        """Advance the solution by one ``dt`` (with sub-stepping on
        convergence failure)."""
        self._advance(self.dt, depth=0)
        self.steps_taken += 1

    def run_until(self, t_stop: float) -> None:
        """Step repeatedly until ``self.t >= t_stop`` (within half a step)."""
        while self.t < t_stop - 0.5 * self.dt:
            self.step()

    def _advance(self, h: float, depth: int) -> None:
        t_new = self.t + h
        c = self.c_val
        if self.method == "trap":
            geq = 2.0 * c / h
            ieq = -(geq * self.v_cap + self.i_cap)
        else:
            geq = c / h
            ieq = -geq * self.v_cap

        sys = self.system
        companions = sys.companion_stamps(geq, ieq)
        try:
            x_new = sys.newton(self.x, t=t_new, overrides=self.overrides,
                               companions=companions,
                               mos_eval=self._mos_eval)
        except ConvergenceError as exc:
            if depth >= 3:
                raise ConvergenceError(
                    f"transient step from t={self.t:.6g} s failed at "
                    f"sub-step h={h:.3g} s (dt/{4 ** depth}): {exc}",
                    iterations=exc.iterations, residual=exc.residual,
                    t=exc.t, node=exc.node) from exc
            _SUBSTEPS.inc()
            for _ in range(4):
                self._advance(h / 4.0, depth + 1)
            return

        self.newton_iterations += sys.last_iterations
        self.x = x_new
        self.t = t_new
        # Device capacitances are frozen within a step and refreshed at
        # each accepted point from the converged call's final MOSFET
        # evaluation, which the next step's first iteration reuses: no
        # device is evaluated again at the accepted point.
        self._refresh_caps(sys.last_mos_eval)
        self.i_cap = geq * self.v_cap + ieq


def transient(circuit: Circuit, t_stop: float, dt: float,
              probes: Sequence[str] | None = None,
              current_probes: Sequence[str] = (),
              method: str = "trap",
              initial_guess: Mapping[str, float] | None = None
              ) -> TranResult:
    """Fixed-step transient analysis from 0 to *t_stop*.

    Args:
        circuit: circuit to integrate.
        t_stop: final time (s).
        dt: fixed step (s).
        probes: node names to record (default: every node).
        current_probes: voltage-source names whose branch current to record.
        method: ``"trap"`` or ``"be"``.
        initial_guess: see :class:`TransientStepper`.

    Returns:
        A :class:`TranResult` including the initial point at t = 0.
    """
    stepper = TransientStepper(circuit, dt, method=method,
                               initial_guess=initial_guess)
    system = stepper.system
    if probes is None:
        probe_list = list(system.nodes)
    else:
        probe_list = [normalize_node(p) for p in probes]
    for probe in probe_list:
        if probe != "0" and probe not in system.node_index:
            raise AnalysisError(f"transient: unknown probe node {probe!r}")
    current_list = [c.lower() for c in current_probes]

    n_steps = int(round(t_stop / dt))
    times = np.empty(n_steps + 1)
    volt_data = {p: np.empty(n_steps + 1) for p in probe_list}
    curr_data = {c: np.empty(n_steps + 1) for c in current_list}

    def record(k: int) -> None:
        times[k] = stepper.t
        for p in probe_list:
            volt_data[p][k] = stepper.v(p)
        for c in current_list:
            curr_data[c][k] = stepper.i(c)

    record(0)
    for k in range(1, n_steps + 1):
        stepper.step()
        record(k)
    return TranResult(t=times, voltages=volt_data, currents=curr_data)
