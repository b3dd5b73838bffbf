"""Table 2: Two-Way Ranging at 9.9 m, ideal versus circuit integrator.

Paper (10 iterations, CM1 LOS with recommended path loss):

    IDEAL integrator:  mean 10.10 m, variance 0.49
    ELDO  integrator:  mean 11.16 m, variance 0.10

The two observations the paper draws from this: the refined integrator
shows (1) a *larger offset* - the AGC overdrives its limited linear
input range, the squared signal is compressed, the output voltage is
lower and the ADC-referred arrival threshold is crossed later - and (2)
a *smaller variance*, attributed to the equivalent-SNR increase.  Our
harness reproduces the offset mechanism robustly; the variance gap sits
inside Monte-Carlo uncertainty at 10 iterations (see EXPERIMENTS.md).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.campaign.runner import CampaignRunner
from repro.campaign.store import ResultStore
from repro.core.metrics import RangingComparison
from repro.core.scenario import Scenario
from repro.experiments.context import ExperimentContext
from repro.link import ops
from repro.link.spec import ChannelSpec, FrontEndSpec, LinkSpec
from repro.uwb.config import UwbConfig

#: The overdriven AGC operating point of the TWR runs (see module doc).
TWR_CONFIG = dict(preamble_symbols=16, payload_bits=16,
                  adc_vref=2e-3, agc_range_db=80.0)
TWR_NOISE_SIGMA = 9e-5
TWR_TOA_FRACTION = 0.5
TWR_DETECTION_FACTOR = 8.0


def twr_spec(distance: float = 9.9,
             integrator: str = "circuit") -> LinkSpec:
    """The table-2 operating point as a :class:`LinkSpec`: CM1 LOS
    channel at *distance*, overdriven AGC drive, mid-scale
    ADC-referred TOA threshold."""
    return LinkSpec(
        config=UwbConfig(**TWR_CONFIG),
        channel=ChannelSpec(kind="cm1", distance=float(distance)),
        frontend=FrontEndSpec(
            detection_factor=TWR_DETECTION_FACTOR,
            toa_threshold_fraction=TWR_TOA_FRACTION),
        integrator=integrator)


@dataclass
class Table2Result:
    """Ranging statistics per model."""

    comparison: RangingComparison
    distance: float
    iterations: int

    PAPER = {"ideal": (10.10, 0.49), "circuit": (11.16, 0.10)}

    def format_report(self) -> str:
        lines = [f"Table 2 - TWR @ {self.distance} m, "
                 f"{self.iterations} iterations (CM1 LOS + path loss)",
                 self.comparison.format_table(),
                 "  paper:  ideal 10.10 m / 0.49, circuit 11.16 m / 0.10",
                 f"  offset increased with circuit: "
                 f"{self.comparison.offset_increased('ideal', 'circuit')}",
                 f"  variance decreased with circuit: "
                 f"{self.comparison.variance_decreased('ideal', 'circuit')}"]
        return "\n".join(lines)


def run_table2(distance: float = 9.9, iterations: int = 10,
               seed: int = 42,
               processes: int | None = None,
               store: ResultStore | None = None) -> Table2Result:
    """Regenerate table 2 (10 iterations at 9.9 m by default).

    Both arms are seeded identically (same noise/channel draws) and
    run as campaign scenarios, so they cache and fan out like every
    other harness.
    """
    runner = CampaignRunner(processes=processes, store=store)
    for label in ("ideal", "circuit"):
        runner.add(Scenario(
            name=label, fn=ops.ranging, seed=seed, rng_param="rng",
            params=dict(spec=twr_spec(distance, integrator=label),
                        iterations=iterations,
                        noise_sigma=TWR_NOISE_SIGMA)))
    arms = runner.run().by_name()
    comparison = RangingComparison()
    for label in ("ideal", "circuit"):
        comparison.add(label, arms[label])
    return Table2Result(comparison=comparison, distance=distance,
                        iterations=iterations)


def table2_experiment(ctx: ExperimentContext) -> str:
    result = run_table2(iterations=30 if ctx.full else 10,
                        processes=ctx.processes, store=ctx.store,
                        **ctx.seed_kwargs())
    return result.format_report()
