"""The paper's contribution: the four-phase top-down AMS methodology.

The phases themselves need no registry here: substitute-and-play is
``LinkSpec.integrator`` rebound to another name of
:data:`repro.link.INTEGRATORS` under the unchanged testbench
(:func:`repro.link.build_integrator` resolves it), and each model
carries its phase as the ``WindowIntegrator.phase`` class attribute.
This package holds the flow's tooling:

* :mod:`repro.core.characterize` - Phase-IV automation: two-pole fit of
  an AC response and static-nonlinearity extraction from a DC sweep of
  the transistor circuit,
* :mod:`repro.core.metrics` - CPU-time accounting and system-metric
  (BER / ranging) comparison reports,
* :mod:`repro.core.scenario` - declarative :class:`Scenario`
  descriptions of multi-run workloads (corner sweeps, BER grids, model
  comparisons) with per-run seeding, and the process fan-out loop that
  :class:`repro.campaign.CampaignRunner` runs them through.
"""

from repro.core.characterize import (
    TwoPoleFit,
    build_surrogate,
    characterize_integrator,
    extract_nonlinearity,
    fit_two_pole,
)
from repro.core.metrics import (
    BerComparison,
    CpuTimeReport,
    RangingComparison,
    compare_ber,
    compare_ranging,
)
from repro.core.scenario import (
    Scenario,
    SweepResult,
)

__all__ = [
    "BerComparison",
    "CpuTimeReport",
    "RangingComparison",
    "Scenario",
    "SweepResult",
    "TwoPoleFit",
    "build_surrogate",
    "characterize_integrator",
    "compare_ber",
    "compare_ranging",
    "extract_nonlinearity",
    "fit_two_pole",
]
