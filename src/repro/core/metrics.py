"""System-metric comparison reports (CPU time, BER, ranging).

These produce the paper's tables in text form:

* :class:`CpuTimeReport` -> Table 1 (CPU time per integrator model),
* :func:`compare_ber` -> Figure 6 commentary (where curves cross, who
  wins at high Eb/N0),
* :func:`compare_ranging` -> Table 2 (mean / variance per model).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.uwb.fastsim import BerResult
from repro.uwb.ranging import RangingResult


def _format_seconds(seconds: float) -> str:
    minutes, secs = divmod(seconds, 60.0)
    if minutes >= 1:
        return f"{int(minutes)} m {secs:4.1f} s"
    return f"{secs:.3f} s"


@dataclass
class CpuTimeReport:
    """CPU-time accounting for one testbench across models (Table 1).

    Attributes:
        simulated_time: the simulated span (s) shared by all runs.
        entries: model label -> wall-clock seconds.
    """

    simulated_time: float
    entries: dict[str, float] = field(default_factory=dict)

    def add(self, label: str, cpu_seconds: float) -> None:
        self.entries[label] = float(cpu_seconds)

    def ratio(self, label: str, reference: str) -> float:
        return self.entries[label] / self.entries[reference]

    def format_table(self) -> str:
        """The Table-1 layout: model, CPU time, simulated time, ratio
        to the fastest model."""
        if not self.entries:
            return "(no entries)"
        fastest = min(self.entries.values())
        sim_txt = f"{self.simulated_time * 1e6:g} us"
        lines = [f"{'Model':<12s} {'CPU Time':>14s} {'Simulation time':>16s}"
                 f" {'x fastest':>10s}"]
        for label, cpu in sorted(self.entries.items(),
                                 key=lambda kv: -kv[1]):
            lines.append(f"{label:<12s} {_format_seconds(cpu):>14s} "
                         f"{sim_txt:>16s} {cpu / fastest:>9.2f}x")
        return "\n".join(lines)


@dataclass
class BerComparison:
    """Comparison of two BER curves on a common Eb/N0 grid.

    Attributes:
        ebn0_db: common grid.
        ber_a / ber_b: the two curves.
        label_a / label_b: their names.
    """

    ebn0_db: np.ndarray
    ber_a: np.ndarray
    ber_b: np.ndarray
    label_a: str
    label_b: str

    def wins_at_high_snr(self) -> str:
        """Label of the curve with the lower BER at the highest grid
        point where both have errors counted (ties -> 'tie')."""
        mask = (self.ber_a > 0) & (self.ber_b > 0)
        if not np.any(mask):
            return "tie"
        idx = np.nonzero(mask)[0][-1]
        if self.ber_a[idx] < self.ber_b[idx]:
            return self.label_a
        if self.ber_b[idx] < self.ber_a[idx]:
            return self.label_b
        return "tie"

    def format_table(self) -> str:
        lines = [f"{'Eb/N0 (dB)':>10s} {self.label_a:>14s} "
                 f"{self.label_b:>14s}"]
        for e, a, b in zip(self.ebn0_db, self.ber_a, self.ber_b):
            lines.append(f"{e:>10.1f} {a:>14.3e} {b:>14.3e}")
        return "\n".join(lines)


def compare_ber(a: BerResult, b: BerResult) -> BerComparison:
    """Align two :class:`~repro.uwb.fastsim.BerResult` curves."""
    if not np.array_equal(a.ebn0_db, b.ebn0_db):
        raise ValueError("BER curves use different Eb/N0 grids")
    return BerComparison(ebn0_db=a.ebn0_db, ber_a=a.ber, ber_b=b.ber,
                         label_a=a.label or "A", label_b=b.label or "B")


@dataclass
class RangingComparison:
    """Table-2 style ranging comparison.

    Attributes:
        entries: label -> RangingResult.
    """

    entries: dict[str, RangingResult] = field(default_factory=dict)

    def add(self, label: str, result: RangingResult) -> None:
        self.entries[label] = result

    def format_table(self) -> str:
        lines = [f"{'Model':<12s} {'Mean':>9s} {'Variance':>10s} "
                 f"{'Offset':>9s}"]
        for label, res in self.entries.items():
            lines.append(f"{label:<12s} {res.mean:>8.2f} m "
                         f"{res.variance:>8.2f}  {res.offset:>+7.2f} m")
        return "\n".join(lines)

    def offset_increased(self, baseline: str, refined: str) -> bool:
        """Does the refined model show the larger offset (the paper's
        first table-2 observation)?"""
        return abs(self.entries[refined].offset) > abs(
            self.entries[baseline].offset)

    def variance_decreased(self, baseline: str, refined: str) -> bool:
        """Does the refined model show the smaller variance (the
        paper's second table-2 observation)?"""
        return (self.entries[refined].variance
                < self.entries[baseline].variance)


def compare_ranging(**results: RangingResult) -> RangingComparison:
    """Build a :class:`RangingComparison` from keyword-labeled results."""
    comparison = RangingComparison()
    for label, result in results.items():
        comparison.add(label, result)
    return comparison
