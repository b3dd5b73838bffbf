"""Campaign layer: persistent, resumable, scriptable experiment runs.

The paper's point is making mixed-signal system simulation cheap
enough for large design-space exploration; this subsystem makes such
campaigns *incremental*:

* :mod:`repro.campaign.store` - a content-addressed result store
  (one object file pair per result, atomic renames, no locks) keyed
  by a stable hash of ``(fn qualname, params, seed, code-version
  salt)``, safe for concurrent writer processes, with ``merge``
  (union caches computed on independent machines) and ``gc``
  (size/age eviction),
* :mod:`repro.campaign.objects` - the store's object codec,
* :mod:`repro.campaign.runner` -
  :class:`~repro.campaign.runner.CampaignRunner`, the one scenario
  runner: it serves cached scenarios, fans the rest out (a scenario
  group's missing members as one unit)
  through :func:`repro.core.scenario.fan_out`, checkpoints every
  result as it completes, and re-runs only what is missing (a killed
  campaign resumes by running it again); with no store it is a plain
  serial or process-pool runner,
* :mod:`repro.campaign.cli` - the ``python -m repro`` command line
  driving all experiment harnesses through the campaign layer;
  ``repro run`` is the one way to run a campaign.
"""
