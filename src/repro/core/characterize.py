"""Phase-IV automation: extract behavioral models from the circuit.

The paper builds its Phase-IV integrator model by hand ("the model simply
consists of two coupled differential equations which define the two poles
and the DC gain") and notes its residual mismatch comes from the
unmodeled input-range distortion.  This module automates both steps
against our transistor netlist:

* :func:`fit_two_pole` - least-squares fit of ``G / ((1+s/w1)(1+s/w2))``
  to an AC response,
* :func:`extract_nonlinearity` - static input compression measured by a
  differential DC sweep,
* :func:`build_surrogate` - the combination: a circuit-calibrated
  :class:`~repro.uwb.integrator.CircuitSurrogateIntegrator` (this is the
  "ELDO stand-in" used by the BER and TWR experiments).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.circuits.integrate_dump import build_id_testbench
from repro.circuits.sizing import IntegrateDumpDesign, default_design
from repro.spice.analysis.ac import ac_analysis, logspace_freqs
from repro.spice.mna import MnaSystem
from repro.uwb.integrator import (
    CircuitSurrogateIntegrator,
    tabulated_nonlinearity,
)

#: Operating-point hints reused by every circuit characterization.
ID_OP_GUESS = {
    "x1.outp": 0.9, "x1.outm": 0.9, "out_intp": 0.9, "out_intm": 0.9,
    "x1.ap": 0.79, "x1.am": 0.79, "x1.pdiop": 1.06, "x1.pdiom": 1.06,
    "x1.vcmfb": 1.15, "x1.x1": 1.1, "x1.s": 0.49, "x1.sref": 0.49,
    "x1.vcmref": 0.9, "x1.tail": 0.15, "vdd": 1.8,
}


@dataclass(frozen=True)
class TwoPoleFit:
    """Result of a two-pole magnitude fit.

    Attributes:
        gain: DC gain (linear).
        fp1_hz / fp2_hz: pole frequencies, ``fp1 <= fp2``.
        rms_error_db: RMS misfit over the fitted band.
    """

    gain: float
    fp1_hz: float
    fp2_hz: float
    rms_error_db: float

    @property
    def gain_db(self) -> float:
        return 20.0 * math.log10(self.gain)

    def magnitude_db(self, freqs) -> np.ndarray:
        """Model magnitude (dB) on a frequency grid."""
        f = np.asarray(freqs, dtype=float)
        return (self.gain_db
                - 10.0 * np.log10(1.0 + (f / self.fp1_hz) ** 2)
                - 10.0 * np.log10(1.0 + (f / self.fp2_hz) ** 2))


def fit_two_pole(freqs, mag_db) -> TwoPoleFit:
    """Fit a DC-gain + two-real-pole magnitude response.

    Args:
        freqs: frequency grid (Hz).
        mag_db: measured magnitude in dB (same length).
    """
    freqs = np.asarray(freqs, dtype=float)
    mag_db = np.asarray(mag_db, dtype=float)
    if len(freqs) != len(mag_db) or len(freqs) < 6:
        raise ValueError("need matching grids with at least 6 points")

    gain0_db = float(mag_db[0])
    below = np.nonzero(mag_db < gain0_db - 3.0)[0]
    f1_0 = freqs[below[0]] if len(below) else freqs[len(freqs) // 2]
    x0 = np.array([gain0_db / 20.0, math.log10(f1_0),
                   math.log10(f1_0) + 3.0])

    def residual(params):
        g_log, f1_log, f2_log = params
        model = (20.0 * g_log
                 - 10.0 * np.log10(1.0 + (freqs / 10.0 ** f1_log) ** 2)
                 - 10.0 * np.log10(1.0 + (freqs / 10.0 ** f2_log) ** 2))
        return model - mag_db

    # Imported here, not at module level: scipy.optimize is about half
    # a second of import, and every module that builds a surrogate
    # imports this one without fitting anything.
    from scipy.optimize import least_squares

    fit = least_squares(residual, x0)
    g_log, f1_log, f2_log = fit.x
    fp1, fp2 = sorted((10.0 ** f1_log, 10.0 ** f2_log))
    rms = float(np.sqrt(np.mean(fit.fun ** 2)))
    return TwoPoleFit(gain=10.0 ** g_log, fp1_hz=fp1, fp2_hz=fp2,
                      rms_error_db=rms)


def characterize_integrator(design: IntegrateDumpDesign | None = None,
                            points_per_decade: int = 10
                            ) -> tuple[TwoPoleFit, np.ndarray, np.ndarray]:
    """AC-characterize the I&D circuit in integrate mode, 1 kHz to
    50 GHz.

    Returns:
        ``(fit, freqs, mag_db)`` - the fit plus the raw AC data (the
        figure-4 curve).
    """
    design = design or default_design()
    tb = build_id_testbench(design, mode="integrate", ac=True)
    freqs = logspace_freqs(1e3, 50e9, points_per_decade)
    ac = ac_analysis(tb, freqs, initial_guess=ID_OP_GUESS)
    mag_db = ac.mag_db("out_intp", "out_intm")
    return fit_two_pole(freqs, mag_db), freqs, mag_db


def extract_nonlinearity(design: IntegrateDumpDesign | None = None,
                         v_max: float = 0.30, points: int = 61
                         ) -> tuple[np.ndarray, np.ndarray, float]:
    """Measure the static differential transfer of the I&D circuit.

    Performs a true differential DC sweep (both inputs move
    symmetrically around the design's input common mode) and returns the
    input-referred compression table.

    Returns:
        ``(vin_grid, f_of_vin, gain0)`` where ``f_of_vin`` is the
        input-referred static characteristic normalized to unit slope at
        the origin (``vout_dc(vin) / gain0``).
    """
    design = design or default_design()
    tb = build_id_testbench(design, mode="integrate")
    system = MnaSystem(tb)
    cm = design.input_cm
    vin_grid = np.linspace(-v_max, v_max, points)
    # Continuation: walk outward from 0 in both directions.
    vout = np.empty(points)
    order = np.argsort(np.abs(vin_grid), kind="stable")
    x = None
    x_center = None
    solved: dict[int, float] = {}
    for rank, idx in enumerate(order):
        v = vin_grid[idx]
        overrides = {"vinp": cm + v / 2.0, "vinm": cm - v / 2.0}
        x0 = x_center if (x is None or rank == 0) else x
        x = system.solve_robust(x0, overrides=overrides)
        if rank == 0:
            x_center = x
        solved[idx] = (system.voltage(x, "out_intp")
                       - system.voltage(x, "out_intm"))
    for idx, val in solved.items():
        vout[idx] = val
    # Slope at the origin from the innermost symmetric pair.
    inner = np.argsort(np.abs(vin_grid))[:3]
    lo, hi = min(inner, key=lambda i: vin_grid[i]), max(
        inner, key=lambda i: vin_grid[i])
    gain0 = (vout[hi] - vout[lo]) / (vin_grid[hi] - vin_grid[lo])
    if gain0 <= 0:
        raise RuntimeError("nonpositive small-signal gain - check the "
                           "operating point")
    return vin_grid, vout / gain0, float(gain0)


def build_surrogate(design: IntegrateDumpDesign | None = None
                    ) -> CircuitSurrogateIntegrator:
    """Fully automated Phase-IV+: AC fit + measured nonlinearity.

    The returned model is the fast ELDO stand-in: it reproduces the
    circuit's gain, both poles *and* the input compression the paper's
    own hand-written Phase-IV model lacked.
    """
    design = design or default_design()
    fit, _freqs, _mag = characterize_integrator(design)
    vin, f_of_vin, _gain0 = extract_nonlinearity(design)
    nonlin = tabulated_nonlinearity(vin, f_of_vin)
    return CircuitSurrogateIntegrator(
        gain=fit.gain, fp1_hz=fit.fp1_hz, fp2_hz=fit.fp2_hz,
        input_nonlinearity=nonlin)
