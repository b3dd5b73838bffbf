"""One front door to the simulated link: ``LinkSpec`` + ``ops``.

The paper's whole point is that *one unchanged testbench* drives every
refinement phase by substituting implementations.  This package is
that front door for the repository:

* :mod:`repro.link.spec` - :class:`LinkSpec`: a frozen, hashable,
  serializable description of the link (configuration, channel, front
  end, integrator selection by name from :data:`INTEGRATORS`), plus
  the multi-user vocabulary: :class:`InterfererSpec` and
  :class:`NetworkSpec`,
* :mod:`repro.link.ops` - one function per operation, each the only
  implementation of it: ``ber_sweep`` / ``ber_curve`` /
  ``mui_ber_curve`` (vectorized golden model), ``ranging``
  (packet-level receiver), ``run_testbench`` (AMS-kernel testbench,
  reference or compiled engine, optional transistor co-simulation)
  and ``golden_packet``; all picklable campaign scenario functions,
* :mod:`repro.link.pipeline` - the staged signal-path pipeline the
  golden model executes chunk by chunk: a Tx -> Channel -> Combine ->
  AnalogFrontEnd front over a :class:`LinkState`, with interferers
  entering at the :class:`CombineStage`, graded by
  :func:`run_ber_sweep` through one :class:`DecisionStage` per
  integrator variant,
* :mod:`repro.link.backends` - the spec -> component builders every
  operation shares (integrator, band-pass, converter, channel,
  receiver, pilot calibration, interferer paths);
  :func:`build_integrator` is the one integrator resolver,
* :mod:`repro.link.equivalence` - the golden-model versus kernel
  Phase-I validation harness (fixed seed).

Quick start::

    from repro.link import LinkSpec, ops
    import numpy as np

    spec = LinkSpec(integrator="two_pole")
    curve = ops.ber_curve(spec, [4, 8, 12], np.random.default_rng(7))
"""

from repro.link.spec import (
    ADC_MODES,
    AGC_MODES,
    CHANNEL_KINDS,
    INTEGRATORS,
    ChannelSpec,
    FrontEndSpec,
    InterfererSpec,
    LinkSpec,
    NetworkSpec,
)
from repro.link.pipeline import (
    AnalogFrontEndStage,
    ChannelStage,
    CombineStage,
    DecisionStage,
    InterfererPath,
    LinkState,
    SignalPipeline,
    TxStage,
    run_ber_point,
    run_ber_sweep,
)
from repro.link.backends import (
    build_adc,
    build_bpf,
    build_channel_model,
    build_channel_realization,
    build_integrator,
    build_interferer_paths,
    build_receiver,
    calibrate,
    split_network,
)
from repro.link.equivalence import EquivalenceResult, run_equivalence
from repro.uwb.system import COSIM
from repro.link import ops

__all__ = [
    "ADC_MODES",
    "AGC_MODES",
    "AnalogFrontEndStage",
    "CHANNEL_KINDS",
    "COSIM",
    "ChannelSpec",
    "ChannelStage",
    "CombineStage",
    "DecisionStage",
    "EquivalenceResult",
    "FrontEndSpec",
    "INTEGRATORS",
    "InterfererPath",
    "InterfererSpec",
    "LinkSpec",
    "LinkState",
    "NetworkSpec",
    "SignalPipeline",
    "TxStage",
    "build_adc",
    "build_bpf",
    "build_channel_model",
    "build_channel_realization",
    "build_integrator",
    "build_interferer_paths",
    "build_receiver",
    "calibrate",
    "ops",
    "run_ber_point",
    "run_ber_sweep",
    "run_equivalence",
    "split_network",
]
