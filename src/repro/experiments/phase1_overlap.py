"""Phase-I validation: AMS-kernel BER overlaps the golden model.

Paper, section 3 (Phase I): "we obtained BER curves which perfectly
overlapped the Matlab ones."  This is the grid form of
:func:`~repro.link.equivalence.run_equivalence`: at every Eb/N0 point
the mixed-signal kernel receiver (block-level, event-driven timing) and
the vectorized golden model demodulate the *same* noisy burst through
the same per-burst comparison (:func:`~repro.link.equivalence.decide_burst`),
so the comparison is exact at the decision level, not merely
statistical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.experiments.registry import ExperimentContext, experiment
from repro.link import FrontEndSpec, LinkSpec, run_equivalence
from repro.link.backends import draw_stimulus
from repro.link.equivalence import DEFAULT_SPEC, decide_burst
from repro.uwb import UwbConfig


@dataclass
class Phase1Result:
    """Per-Eb/N0 BERs of the two paths plus decision agreement."""

    ebn0_db: np.ndarray
    ber_ams: np.ndarray
    ber_golden: np.ndarray
    decision_agreement: float
    bits_per_point: int

    @property
    def max_ber_gap(self) -> float:
        return float(np.max(np.abs(self.ber_ams - self.ber_golden)))

    def format_report(self) -> str:
        lines = ["Phase I - AMS kernel vs golden model BER overlap",
                 f"{'Eb/N0':>7s} {'AMS':>10s} {'golden':>10s}"]
        for e, a, g in zip(self.ebn0_db, self.ber_ams, self.ber_golden):
            lines.append(f"{e:>7.1f} {a:>10.4f} {g:>10.4f}")
        lines.append(f"  per-decision agreement: "
                     f"{self.decision_agreement * 100:.2f} % "
                     f"({self.bits_per_point} bits/point)")
        return "\n".join(lines)


def run_phase1_overlap(config: UwbConfig | None = None,
                       ebn0_grid=(6.0, 10.0),
                       bits_per_point: int = 60,
                       seed: int = 23) -> Phase1Result:
    """Run both paths over identical bursts and compare decisions.

    One generator draws every grid point's burst with
    :func:`~repro.link.backends.draw_stimulus` (squarer drive 0.3);
    the golden model and the compiled-engine kernel decide each burst
    through :func:`~repro.link.equivalence.decide_burst`, so agreement
    should be essentially total.
    """
    spec = LinkSpec(config=config or UwbConfig(), integrator="ideal",
                    frontend=FrontEndSpec(squarer_drive=0.3))
    rng = np.random.default_rng(seed)
    ber_ams, ber_golden = [], []
    agree = 0
    for ebn0 in ebn0_grid:
        tx, driven = draw_stimulus(spec, ebn0, bits_per_point, rng)
        golden, kernel = decide_burst(spec, driven, ("compiled",))
        ams = kernel["compiled"]
        ber_ams.append(np.mean(ams != tx))
        ber_golden.append(np.mean(golden != tx))
        agree += int(np.count_nonzero(ams == golden))
    return Phase1Result(
        ebn0_db=np.asarray(ebn0_grid, dtype=float),
        ber_ams=np.asarray(ber_ams), ber_golden=np.asarray(ber_golden),
        decision_agreement=agree / max(bits_per_point * len(ebn0_grid), 1),
        bits_per_point=bits_per_point)


@experiment("phase1", order=60,
            description="Phase-I overlap: AMS-kernel BER vs the "
                        "gate-mirrored golden model")
def phase1_experiment(ctx: ExperimentContext) -> str:
    result = run_phase1_overlap(
        bits_per_point=120 if ctx.full else 60, **ctx.seed_kwargs())
    return result.format_report()


@experiment("equivalence", order=70,
            description="Cross-backend equivalence: fastsim vs kernel "
                        "(both engines) on one seeded burst")
def equivalence_experiment(ctx: ExperimentContext) -> str:
    result = run_equivalence(DEFAULT_SPEC,
                             bits=400 if ctx.full else 150,
                             **ctx.seed_kwargs())
    return result.format_report()
