"""Figure 4: integrator AC response, circuit versus behavioral model.

Paper values: DC gain 21 dB, poles at 0.886 MHz and 5.895 GHz, ideal
integrator behaviour across 10 MHz - 1 GHz, and a Phase-IV model that
"perfectly overlaps the AC response simulated with Eldo".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.characterize import TwoPoleFit, characterize_integrator
from repro.experiments.context import ExperimentContext


@dataclass
class Fig4Result:
    """AC response data + the extracted two-pole fit."""

    freqs: np.ndarray
    circuit_mag_db: np.ndarray
    model_mag_db: np.ndarray
    fit: TwoPoleFit

    PAPER = {"gain_db": 21.0, "fp1_hz": 0.886e6, "fp2_hz": 5.895e9}

    @property
    def overlap_rms_db(self) -> float:
        """RMS distance between circuit and model curves (the paper's
        'perfect overlap' claim)."""
        return float(np.sqrt(np.mean(
            (self.circuit_mag_db - self.model_mag_db) ** 2)))

    def slope_db_per_decade(self, f_low: float, f_high: float) -> float:
        """Measured rolloff slope between two frequencies."""
        m_low = float(np.interp(np.log10(f_low), np.log10(self.freqs),
                                self.circuit_mag_db))
        m_high = float(np.interp(np.log10(f_high), np.log10(self.freqs),
                                 self.circuit_mag_db))
        return (m_high - m_low) / np.log10(f_high / f_low)

    def format_report(self) -> str:
        slope = self.slope_db_per_decade(10e6, 1e9)
        return "\n".join([
            "Figure 4 - Integrator AC response",
            f"  DC gain   : {self.fit.gain_db:6.2f} dB   "
            f"(paper: {self.PAPER['gain_db']:.1f} dB)",
            f"  pole 1    : {self.fit.fp1_hz / 1e6:6.3f} MHz "
            f"(paper: {self.PAPER['fp1_hz'] / 1e6:.3f} MHz)",
            f"  pole 2    : {self.fit.fp2_hz / 1e9:6.3f} GHz "
            f"(paper: {self.PAPER['fp2_hz'] / 1e9:.3f} GHz)",
            f"  10M-1G slope: {slope:6.2f} dB/dec (ideal integrator: -20)",
            f"  circuit-vs-model overlap: {self.overlap_rms_db:.3f} dB rms",
        ])


def run_fig4(points_per_decade: int = 10) -> Fig4Result:
    """Regenerate figure 4: AC-sweep the transistor netlist, fit the
    two-pole Phase-IV model, overlay both."""
    fit, freqs, mag_db = characterize_integrator(
        points_per_decade=points_per_decade)
    model_mag = fit.magnitude_db(freqs)
    return Fig4Result(freqs=freqs, circuit_mag_db=mag_db,
                      model_mag_db=model_mag, fit=fit)


def fig4_experiment(ctx: ExperimentContext) -> str:
    result = run_fig4(points_per_decade=16 if ctx.full else 10)
    return result.format_report()
