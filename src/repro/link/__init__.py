"""One front door to the simulated link: ``LinkSpec`` + ``Backend``.

The paper's whole point is that *one unchanged testbench* drives every
refinement phase by substituting implementations.  This package is
that front door for the repository:

* :mod:`repro.link.spec` - :class:`LinkSpec`: a frozen, hashable,
  serializable description of the link (configuration, channel, front
  end, integrator selection by registry name), plus the multi-user
  vocabulary: :class:`InterfererSpec` and :class:`NetworkSpec`,
* :mod:`repro.link.pipeline` - the staged signal-path pipeline the
  golden model executes chunk by chunk (Tx -> Channel -> Combine ->
  AnalogFrontEnd -> Decision over a batched :class:`LinkState`), with
  interferers entering at the :class:`CombineStage`,
* :mod:`repro.link.registry` - integrator construction routed through
  the :class:`~repro.core.registry.ModelRegistry` (absorbing the old
  ``make_integrator`` string dispatch),
* :mod:`repro.link.backends` - the :class:`Backend` protocol with two
  implementations: :class:`FastsimBackend` (vectorized golden model)
  and :class:`KernelBackend` (AMS-kernel testbench, reference or
  compiled engine, optional transistor co-simulation),
* :mod:`repro.link.ops` - picklable top-level operations for campaign
  scenarios (``ber_curve`` / ``ranging`` / ``run_testbench``),
* :mod:`repro.link.equivalence` - the cross-backend Phase-I
  validation harness (fastsim vs kernel, fixed seed).

Quick start::

    from repro.link import FastsimBackend, LinkSpec
    import numpy as np

    spec = LinkSpec(integrator="two_pole")
    curve = FastsimBackend().ber_curve(spec, [4, 8, 12],
                                       np.random.default_rng(7))
"""

from repro.link.spec import (
    ADC_MODES,
    AGC_MODES,
    CHANNEL_KINDS,
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
    Stage,
    TxStage,
    build_link_pipeline,
    run_ber_point,
    run_ber_sweep,
)
from repro.link.registry import (
    COSIM,
    default_link_registry,
    integrator_names,
    link_registry,
    register_integrator,
    resolve_integrator,
)
from repro.link.backends import (
    BACKENDS,
    Backend,
    FastsimBackend,
    KernelBackend,
    build_adc,
    build_bpf,
    build_channel_model,
    build_channel_realization,
    build_interferer_paths,
    build_interferer_realization,
    build_receiver,
    calibrate,
    get_backend,
    split_network,
)
from repro.link.equivalence import EquivalenceResult, run_equivalence
from repro.link import ops

__all__ = [
    "ADC_MODES",
    "AGC_MODES",
    "BACKENDS",
    "AnalogFrontEndStage",
    "Backend",
    "CHANNEL_KINDS",
    "COSIM",
    "ChannelSpec",
    "ChannelStage",
    "CombineStage",
    "DecisionStage",
    "EquivalenceResult",
    "FastsimBackend",
    "FrontEndSpec",
    "InterfererPath",
    "InterfererSpec",
    "KernelBackend",
    "LinkSpec",
    "LinkState",
    "NetworkSpec",
    "SignalPipeline",
    "Stage",
    "TxStage",
    "build_adc",
    "build_bpf",
    "build_channel_model",
    "build_channel_realization",
    "build_interferer_paths",
    "build_interferer_realization",
    "build_link_pipeline",
    "build_receiver",
    "calibrate",
    "default_link_registry",
    "get_backend",
    "integrator_names",
    "link_registry",
    "ops",
    "register_integrator",
    "resolve_integrator",
    "run_ber_point",
    "run_ber_sweep",
    "run_equivalence",
    "split_network",
]
