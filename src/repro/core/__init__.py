"""The paper's contribution: the four-phase top-down AMS methodology.

The phases themselves need no registry here: substitute-and-play is
``LinkSpec.integrator`` rebound to another name of
:data:`repro.link.spec.INTEGRATORS` under the unchanged testbench
(:func:`repro.link.backends.build_integrator` resolves it), and each
model carries its phase as the ``WindowIntegrator.phase`` class
attribute.
This package holds the flow's tooling:

* :mod:`repro.core.characterize` - Phase-IV automation: two-pole fit of
  an AC response and static-nonlinearity extraction from a DC sweep of
  the transistor circuit,
* :mod:`repro.core.iir` - the IIR filters on NumPy alone: Butterworth
  band-pass design, the bilinear transform and the block state-space
  filter kernel every filter in the package runs on,
* :mod:`repro.core.metrics` - CPU-time accounting and system-metric
  (BER / ranging) comparison reports,
* :mod:`repro.core.scenario` - declarative
  :class:`~repro.core.scenario.Scenario` descriptions of multi-run
  workloads (corner sweeps, BER grids, model comparisons) with per-run
  seeding, scenario groups that run as one call, and the process
  fan-out loop that
  :class:`repro.campaign.runner.CampaignRunner` runs them through.
"""
