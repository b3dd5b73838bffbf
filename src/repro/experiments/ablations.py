"""Ablation experiments for the design choices the paper calls out.

* **Two-stage AGC** (paper section 5, proposed fix): a first gain stage
  matches the *amplitude* to the integrator's linear input range and a
  second stage restores *energy* matching for the ADC - removing the
  ranging offset the single-stage AGC incurs with the real integrator.
* **Noise shaping** (figure-6 mechanism): sweep the integrator's second
  pole and measure the paired BER delta against the ideal integrator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.campaign.runner import CampaignRunner
from repro.campaign.store import ResultStore
from repro.core.scenario import Scenario
from repro.experiments.context import ExperimentContext
from repro.experiments.table2_twr import TWR_NOISE_SIGMA, twr_spec
from repro.link import ops
from repro.link.spec import FrontEndSpec, LinkSpec
from repro.uwb.config import UwbConfig
from repro.uwb.integrator import TwoPoleIntegrator
from repro.uwb.ranging import RangingResult


@dataclass
class AgcAblationResult:
    """Ranging with single-stage versus two-stage AGC (circuit model)."""

    single_stage: RangingResult
    two_stage: RangingResult

    @property
    def offset_reduction(self) -> float:
        """Offset removed by the two-stage AGC (m)."""
        return abs(self.single_stage.offset) - abs(self.two_stage.offset)

    def format_report(self) -> str:
        return "\n".join([
            "Ablation - two-stage AGC (paper's proposed architecture fix)",
            f"  single-stage: mean {self.single_stage.mean:6.2f} m, "
            f"offset {self.single_stage.offset:+5.2f} m, "
            f"variance {self.single_stage.variance:6.3f}",
            f"  two-stage   : mean {self.two_stage.mean:6.2f} m, "
            f"offset {self.two_stage.offset:+5.2f} m, "
            f"variance {self.two_stage.variance:6.3f}",
            f"  offset reduced by {self.offset_reduction:+5.2f} m",
        ])


def _agc_spec(distance: float, two_stage: bool) -> "LinkSpec":
    """The ablation link: the table-2 operating point with the circuit
    integrator under the selected AGC policy."""
    spec = twr_spec(distance, integrator="circuit")
    if two_stage:
        spec = spec.with_frontend(agc="two_stage", agc_amp_target=0.06)
    return spec


def run_agc_ablation(distance: float = 9.9, iterations: int = 10,
                     seed: int = 42,
                     processes: int | None = None,
                     store: ResultStore | None = None) -> AgcAblationResult:
    """TWR with the circuit integrator under both AGC policies (both
    arms share the seed, so they see the same noise/channel draws)."""
    runner = CampaignRunner(processes=processes, store=store)
    for label, two_stage in (("single", False), ("two_stage", True)):
        runner.add(Scenario(
            name=label, fn=ops.ranging, seed=seed, rng_param="rng",
            params=dict(spec=_agc_spec(distance, two_stage),
                        iterations=iterations,
                        noise_sigma=TWR_NOISE_SIGMA)))
    arms = runner.run().by_name()
    return AgcAblationResult(single_stage=arms["single"],
                             two_stage=arms["two_stage"])


@dataclass
class NoiseShapingResult:
    """Paired BER delta versus the second-pole frequency."""

    fp2_grid: np.ndarray
    ber_ideal: float
    ber_shaped: np.ndarray
    ebn0_db: float

    def format_report(self) -> str:
        lines = [f"Ablation - noise shaping (Eb/N0 = {self.ebn0_db} dB)",
                 f"  ideal integrator BER: {self.ber_ideal:.4e}",
                 f"{'fp2':>12s} {'BER':>12s} {'vs ideal':>10s}"]
        for fp2, ber in zip(self.fp2_grid, self.ber_shaped):
            rel = ber / self.ber_ideal if self.ber_ideal else float("nan")
            lines.append(f"{fp2 / 1e9:>10.1f} G {ber:>12.4e} {rel:>9.2f}x")
        return "\n".join(lines)


def run_noise_shaping_ablation(ebn0_db: float = 12.0,
                               fp2_grid=(1e9, 3e9, 6e9, 20e9),
                               seed: int = 7,
                               quick: bool = True,
                               store: ResultStore | None = None
                               ) -> NoiseShapingResult:
    """BER versus the model's second pole, paired against the ideal
    integrator: one batched sweep grades every arm on the same bits
    and noise, and each arm's BER equals its own one-integrator
    ``ops.ber_curve`` from the same seed."""
    if quick:
        budget = dict(target_errors=80, max_bits=60_000, min_bits=4_000)
    else:
        budget = dict(target_errors=300, max_bits=600_000,
                      min_bits=40_000)
    spec = LinkSpec(config=UwbConfig(),
                    frontend=FrontEndSpec(band=(2.0e9, 9.0e9)))
    shaped = tuple(TwoPoleIntegrator(fp2_hz=float(fp2)) for fp2 in fp2_grid)
    # Positional labels: fp2 values that format alike stay distinct.
    labels = ("ideal", *(f"fp2[{i}]={float(fp2):g}"
                         for i, fp2 in enumerate(fp2_grid)))
    (arms,) = CampaignRunner([Scenario(
        name="arms", fn=ops.ber_sweep, seed=seed, rng_param="rng",
        params=dict(spec=spec, ebn0_grid=[ebn0_db],
                    integrators=("ideal", *shaped), labels=labels,
                    **budget))], store=store).run().values()
    curves = list(arms.values())
    return NoiseShapingResult(
        fp2_grid=np.asarray(fp2_grid, dtype=float),
        ber_ideal=float(curves[0].ber[0]),
        ber_shaped=np.asarray([float(c.ber[0]) for c in curves[1:]]),
        ebn0_db=float(ebn0_db))


def ablations_experiment(ctx: ExperimentContext) -> str:
    agc = run_agc_ablation(iterations=20 if ctx.full else 10,
                           processes=ctx.processes, store=ctx.store,
                           **ctx.seed_kwargs())
    shaping = run_noise_shaping_ablation(quick=not ctx.full,
                                         store=ctx.store,
                                         **ctx.seed_kwargs())
    return agc.format_report() + "\n\n" + shaping.format_report()
