"""Figure 5: integrate / hold / dump transient, three implementations.

The paper drives the three integrators (IDEAL, ELDO netlist, VHDL-AMS
two-pole model) with the same input, integrates, holds for the ADC, then
resets - and observes that the behavioral model tracks the netlist
except for the distortion of the limited linear input range.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ams.equations import (
    GatedIntegratorState,
    TwoPoleGatedIntegratorState,
)
from repro.circuits import build_id_testbench, default_design
from repro.circuits.integrate_dump import integrate_hold_dump_waves
from repro.campaign.runner import CampaignRunner
from repro.campaign.store import ResultStore
from repro.core.characterize import ID_OP_GUESS, characterize_integrator
from repro.core.scenario import Scenario
from repro.experiments.context import ExperimentContext
from repro.spice import transient
from repro.uwb.integrator import IdealIntegrator


@dataclass
class Fig5Result:
    """Transient trajectories of the three implementations."""

    t: np.ndarray
    circuit: np.ndarray
    ideal: np.ndarray
    model: np.ndarray
    t_int: tuple[float, float]
    t_hold: tuple[float, float]
    diff_dc: float

    def held_value(self, trace: np.ndarray) -> float:
        """Value mid-hold (what the ADC would convert)."""
        t_mid = 0.5 * (self.t_hold[0] + self.t_hold[1])
        return float(np.interp(t_mid, self.t, trace))

    @property
    def model_vs_circuit_mismatch(self) -> float:
        """Relative held-value mismatch of the two-pole model versus the
        netlist (the paper's figure-5 distortion discussion)."""
        circ = self.held_value(self.circuit)
        model = self.held_value(self.model)
        return abs(model - circ) / max(abs(circ), 1e-12)

    def reset_works(self, tol: float = 5e-3) -> bool:
        """All three outputs return to ~0 after the dump."""
        return all(abs(trace[-1]) < tol for trace in
                   (self.circuit, self.ideal, self.model))

    def format_report(self) -> str:
        return "\n".join([
            "Figure 5 - Integrate/hold/dump transient "
            f"(vin_diff = {self.diff_dc * 1e3:.0f} mV DC)",
            f"  held value  IDEAL   : {self.held_value(self.ideal) * 1e3:8.2f} mV",
            f"  held value  circuit : {self.held_value(self.circuit) * 1e3:8.2f} mV",
            f"  held value  model   : {self.held_value(self.model) * 1e3:8.2f} mV",
            f"  model-vs-circuit mismatch: "
            f"{self.model_vs_circuit_mismatch * 100:.1f} %",
            f"  reset returns to zero: {self.reset_works()}",
        ])


def run_fig5(diff_dc: float = 0.05, dt: float = 0.1e-9) -> Fig5Result:
    """Regenerate figure 5.

    The circuit runs in the Spice engine; the IDEAL and two-pole models
    run their gated ODE states over the same timing, the two-pole
    model with the figure-4 extracted poles.
    """
    design = default_design()
    t_start, t_int, t_hold, t_dump = 20e-9, 60e-9, 40e-9, 30e-9
    waves = integrate_hold_dump_waves(t_start, t_int, t_hold, t_dump,
                                      vdd=design.vdd)
    tb = build_id_testbench(design, diff_dc=diff_dc, control_waves=waves)
    t_stop = t_start + t_int + t_hold + t_dump + 20e-9
    res = transient(tb, t_stop, dt, probes=["out_intp", "out_intm"],
                    initial_guess=ID_OP_GUESS)
    circuit = res.vdiff("out_intp", "out_intm")
    t = res.t
    fit, _f, _m = characterize_integrator()

    t_int_window = (t_start, t_start + t_int)
    t_hold_window = (t_start + t_int, t_start + t_int + t_hold)
    ideal = _gated_replay(GatedIntegratorState(IdealIntegrator().k),
                          diff_dc, t, dt, t_int_window, t_hold_window)
    model = _gated_replay(
        TwoPoleGatedIntegratorState(fit.gain, fit.fp1_hz, fit.fp2_hz),
        diff_dc, t, dt, t_int_window, t_hold_window)
    return Fig5Result(t=t, circuit=circuit, ideal=ideal, model=model,
                      t_int=t_int_window, t_hold=t_hold_window,
                      diff_dc=diff_dc)


def run_fig5_drive_sweep(drives=(0.02, 0.15), dt: float = 0.4e-9,
                         processes: int | None = None,
                         store: ResultStore | None = None
                         ) -> list[Fig5Result]:
    """Figure-5 transients across input drive levels (the distortion
    study: the pole-only model tracks the netlist at small drive and
    diverges once the ~100 mV linear input range is exceeded).

    Returns:
        One :class:`Fig5Result` per drive, in the given order (each
        result carries its drive as ``diff_dc``).
    """
    runner = CampaignRunner(processes=processes, store=store)
    for drive in drives:
        runner.add(Scenario(name=f"drive={float(drive):g}", fn=run_fig5,
                            params=dict(diff_dc=float(drive), dt=dt)))
    return runner.run().values()


def fig5_experiment(ctx: ExperimentContext) -> str:
    results = run_fig5_drive_sweep(dt=0.2e-9 if ctx.full else 0.4e-9,
                                   processes=ctx.processes,
                                   store=ctx.store)
    return "\n\n".join(r.format_report() for r in results)


def _gated_replay(state, diff_dc: float, t: np.ndarray, dt: float,
                  t_int_window: tuple[float, float],
                  t_hold_window: tuple[float, float]) -> np.ndarray:
    """Drive a gated ODE state over the integrate/hold/dump timing.

    Segment-vectorized like the kernel's compiled engine: the gate
    phase is piecewise constant in time, so each contiguous run of
    samples is computed in one ``integrate_block`` / ``hold`` / ``dump``
    call instead of one Python call per 0.05 ns sample.
    """
    out = np.zeros_like(t)
    now = t[1:]
    phase = np.zeros(len(now), dtype=np.int8)
    phase[(t_int_window[0] <= now) & (now < t_int_window[1])] = 1
    phase[(t_hold_window[0] <= now) & (now < t_hold_window[1])] = 2
    edges = np.flatnonzero(np.diff(phase)) + 1
    for lo, hi in zip(np.concatenate(([0], edges)),
                      np.concatenate((edges, [len(phase)]))):
        if phase[lo] == 1:
            out[1 + lo:1 + hi] = state.integrate_block(
                np.full(hi - lo, diff_dc), dt)
        elif phase[lo] == 2:
            out[1 + lo:1 + hi] = state.hold()
        else:
            out[1 + lo:1 + hi] = state.dump()
    return out
