"""One front door to the simulated link: ``LinkSpec`` + ``ops``.

The paper's whole point is that *one unchanged testbench* drives every
refinement phase by substituting implementations.  This package is
that front door for the repository:

* :mod:`repro.link.spec` - :class:`~repro.link.spec.LinkSpec`: a
  frozen, hashable, serializable description of the link
  (configuration, channel, front end, integrator selection by name
  from :data:`~repro.link.spec.INTEGRATORS`), plus the multi-user
  vocabulary: :class:`~repro.link.spec.InterfererSpec` and
  :class:`~repro.link.spec.NetworkSpec`,
* :mod:`repro.link.ops` - one function per operation, each the only
  implementation of it: ``ber_sweep`` / ``ber_curve`` /
  ``mui_ber_curve`` (vectorized golden model of the ideal AWGN link,
  unquantized), ``ranging`` (packet-level receiver, CM1 channel),
  ``run_testbench`` (AMS-kernel testbench, reference or compiled
  engine, optional transistor co-simulation) and ``golden_packet``; all picklable campaign scenario functions,
* :mod:`repro.link.pipeline` - the staged signal-path pipeline the
  golden model executes chunk by chunk: a Tx -> Channel -> Combine ->
  AnalogFrontEnd front over a :class:`~repro.link.pipeline.LinkState`,
  with interferers entering at the
  :class:`~repro.link.pipeline.CombineStage`, graded by
  :func:`~repro.link.pipeline.run_ber_sweep` through one
  :class:`~repro.link.pipeline.DecisionStage` per integrator variant,
* :mod:`repro.link.backends` - the spec -> component builders every
  operation shares (integrator, band-pass, the packet operations'
  converter, the ranging channel model, receiver, pilot calibration,
  interferer paths);
  :func:`~repro.link.backends.build_integrator` is the one integrator
  resolver,
* :mod:`repro.link.equivalence` - the golden-model versus kernel
  Phase-I validation harness (fixed seed).

Quick start::

    import numpy as np

    from repro.link import ops
    from repro.link.spec import LinkSpec

    spec = LinkSpec(integrator="two_pole")
    curve = ops.ber_curve(spec, [4, 8, 12], np.random.default_rng(7))
"""

# perfbench/workloads.py imports these names through the package; they
# leave with ROADMAP item 5.
from repro.link.spec import FrontEndSpec, LinkSpec  # noqa: F401
