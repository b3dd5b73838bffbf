"""Figure 6: BER versus Eb/N0, ideal versus circuit integrator.

Paper claims: both curves decrease monotonically from Eb/N0 = 0 to
14 dB; the real (ELDO) integrator performs slightly *better* at high
Eb/N0, "imputable to the noise shaping effect of the second pole at high
frequencies".  We run the vectorized Monte-Carlo engine with paired
noise (same seed) so the comparison is tight at small sample counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.campaign.runner import CampaignRunner
from repro.campaign.store import ResultStore
from repro.core.metrics import BerComparison, compare_ber
from repro.core.scenario import Scenario
from repro.experiments.context import ExperimentContext
from repro.link import ops
from repro.link.backends import build_bpf
from repro.link.spec import FrontEndSpec, LinkSpec
from repro.uwb.config import UwbConfig
from repro.uwb.fastsim import AdaptiveStopping
from repro.uwb.theory import ideal_awgn_ber

#: Wide receiver front end: squared noise extends past the integrator's
#: second pole, activating the noise-shaping mechanism the paper cites.
WIDE_FRONT_END = (2.0e9, 9.0e9)

#: AGC operating point for the BER runs (inside the linear range; the
#: TWR experiment uses the overdriven point).
BER_DRIVE = 0.05


@dataclass
class Fig6Result:
    """Paired BER curves + comparison.

    ``curves`` keeps the raw per-curve results (error counters and
    Wilson confidence bounds) - the campaign artifact of record;
    ``spec`` is the swept link, from which the report computes the
    exact ideal-integrator curve.
    """

    comparison: BerComparison
    config: UwbConfig
    drive: float
    curves: dict[str, "BerResult"] | None = None
    spec: LinkSpec | None = None

    def exact_ideal(self) -> np.ndarray:
        """The exact ideal-integrator BER on the comparison grid
        (:func:`repro.uwb.theory.ideal_awgn_ber`; the fig6 link is
        AWGN with no converter in the sweep)."""
        return ideal_awgn_ber(self.spec.config, build_bpf(self.spec),
                              self.comparison.ebn0_db)

    @property
    def monotone(self) -> bool:
        """Both curves non-increasing with Eb/N0 (within counting
        noise)."""
        def ok(ber):
            ber = np.asarray(ber)
            return bool(np.all(ber[1:] <= ber[:-1] * 1.5))

        return ok(self.comparison.ber_a) and ok(self.comparison.ber_b)

    def format_report(self) -> str:
        lines = ["Figure 6 - BER vs Eb/N0 (2-PPM energy detection)",
                 self.comparison.format_table(),
                 f"  winner at high Eb/N0: "
                 f"{self.comparison.wins_at_high_snr()} "
                 "(paper: the circuit integrator)"]
        if self.spec is not None:
            lines += ["", "exact ideal-integrator BER (Imhof, AWGN):",
                      f"{'Eb/N0 (dB)':>10s} {'exact':>14s}"]
            lines += [f"{e:>10.1f} {p:>14.3e}" for e, p in
                      zip(self.comparison.ebn0_db, self.exact_ideal())]
        if self.curves:
            for label, curve in self.curves.items():
                lines += ["", f"{label} curve (errors / bits / "
                              f"{curve.confidence:.0%} Wilson CI):",
                          curve.format_table()]
        return "\n".join(lines)


def run_fig6(ebn0_grid=(0, 2, 4, 6, 8, 10, 12, 14),
             seed: int = 7,
             quick: bool = True,
             adaptive: AdaptiveStopping | None = None,
             store: ResultStore | None = None,
             chunk_bits: int | None = None) -> Fig6Result:
    """Regenerate figure 6.

    The whole figure is ONE scenario-batched sweep: both curves share
    the seed, hence the front end, so one Tx/channel/AFE pass per chunk
    feeds both decision stages.  Each curve is bit-identical to its
    own standalone ``ber_curve`` run.

    Args:
        quick: smaller Monte-Carlo budget (bench default); paper-scale
            runs use ``quick=False``.
        adaptive: sequential per-point stopping policy; deep-SNR
            points end once their Wilson bounds are resolved instead
            of burning the whole ``max_bits`` budget.
        store: result store for cached/resumable execution.
        chunk_bits: Monte-Carlo chunk size override.
    """
    config = UwbConfig()
    if quick:
        budget = dict(target_errors=60, max_bits=40_000, min_bits=2_000)
    else:
        budget = dict(target_errors=200, max_bits=400_000, min_bits=20_000)
    if chunk_bits is not None:
        budget["chunk_bits"] = chunk_bits

    # Paired noise: both curves draw from a generator seeded
    # identically, so they differ only by the integrator model.
    runner = CampaignRunner(store=store)
    spec = LinkSpec(config=config,
                    frontend=FrontEndSpec(band=WIDE_FRONT_END,
                                          squarer_drive=BER_DRIVE),
                    integrator="ideal")
    runner.add(Scenario(
        name="curves", fn=ops.ber_sweep, seed=seed, rng_param="rng",
        params=dict(
            spec=spec, ebn0_grid=ebn0_grid,
            integrators=("ideal", "circuit"),
            labels=("ideal", "circuit"),
            adaptive=adaptive, **budget)))
    curves = runner.run().by_name()["curves"]
    return Fig6Result(comparison=compare_ber(curves["ideal"],
                                             curves["circuit"]),
                      config=config, drive=BER_DRIVE, curves=curves,
                      spec=spec)


def fig6_experiment(ctx: ExperimentContext) -> str:
    # Adaptive Monte-Carlo: deep-SNR points stop once their Wilson
    # upper bound resolves below the study's floor instead of burning
    # the full symbol budget.
    adaptive = AdaptiveStopping(ber_floor=1e-5 if ctx.full else 1e-4)
    result = run_fig6(quick=not ctx.full, adaptive=adaptive,
                      store=ctx.store, chunk_bits=ctx.chunk_bits,
                      **ctx.seed_kwargs())
    return result.format_report()
