"""The link operations: one function per unit of work.

Every operation takes a :class:`~repro.link.spec.LinkSpec` (or, for
the BER operations, a multi-user :class:`~repro.link.spec.NetworkSpec`)
and builds its components through :mod:`repro.link.backends`:

======================  ==============================================
operation               unit of work
======================  ==============================================
:func:`ber_sweep`       batched multi-integrator BER sweep (fig6)
:func:`ber_curve`       one-integrator BER curve (ablations)
:func:`mui_ber_curve`   multi-user BER curve over a ``NetworkSpec``
:func:`mui_ber_curves`  multi-user curves that draw alike, one sweep
:func:`ranging`         two-way ranging through the packet receiver
:func:`run_testbench`   AMS-kernel receiver testbench (table1)
:func:`golden_packet`   golden-model decision on a conditioned burst
======================  ==============================================

The functions are importable, picklable and take plain keyword
arguments, so :class:`~repro.core.scenario.Scenario` content-addresses
them by ``module:qualname`` plus keywords: every experiment harness
fans out, caches and resumes the same way.  The BER operations share
one chunk loop, :func:`~repro.link.pipeline.run_ber_sweep`.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

import numpy as np

from repro.link.backends import (
    build_channel_model,
    build_integrator,
    build_interferer_paths,
    build_quantizer,
    build_receiver,
    calibrate,
    split_network,
)
from repro.link.pipeline import (
    AnalogFrontEndStage,
    ChannelStage,
    CombineStage,
    DecisionStage,
    SignalPipeline,
    TxStage,
    run_ber_sweep,
)
from repro.link.spec import LinkSpec, NetworkSpec
from repro.uwb.adc import decide_slots
from repro.uwb.channel.awgn import noise_sigma_for_ebn0
from repro.uwb.fastsim import AdaptiveStopping, BerResult, _curve_result
from repro.uwb.integrator import WindowIntegrator
from repro.uwb.ranging import RangingResult, TwoWayRanging
from repro.uwb.system import AmsRunResult, build_ams_receiver


def _as_link_spec(spec: LinkSpec | NetworkSpec,
                  operation: str) -> LinkSpec:
    """Reject :class:`NetworkSpec` where only single links run."""
    if isinstance(spec, NetworkSpec):
        raise TypeError(
            f"{operation} runs single links only; multi-user "
            "NetworkSpec is supported by the BER ops ber_curve / "
            "mui_ber_curve / ber_sweep (the golden model synthesizes "
            "and sums the per-transmitter waveforms)")
    return spec


def ber_sweep(spec: LinkSpec | NetworkSpec, ebn0_grid,
              rng: np.random.Generator, *,
              integrators: tuple = ("ideal", "circuit"),
              labels: tuple | None = None,
              target_errors: int = 100,
              max_bits: int = 200_000,
              min_bits: int = 2_000,
              chunk_bits: int = 1_000,
              adaptive: AdaptiveStopping | None = None
              ) -> dict[str, BerResult]:
    """Batched multi-curve BER sweep: one shared front end, one
    decision stage per integrator, every (integrator, Eb/N0) cell
    graded from the same bit/noise draws.

    The golden-model BER pipeline of one link: its front (built by
    ``_fronts``, as for :func:`mui_ber_curves`), then
    :func:`~repro.link.pipeline.run_ber_sweep`.  Curve ``k`` is
    bit-identical to a one-integrator sweep of ``integrators[k]``
    with a generator seeded like *rng* - the batch only
    reorganizes the arithmetic, never the entropy stream.

    Args:
        spec: a single link, or a multi-user network whose victim's
            bits are graded.
        integrators: integrator names or model instances (``None``
            selects the spec's integrator); their decision stages
            share the Tx/channel/AFE work.
        labels: one result key per integrator (defaults to the
            integrator name / model name).
        target_errors / max_bits / min_bits: stopping rule.
        chunk_bits: symbols per vectorized chunk.
        adaptive: optional sequential policy ending a cell as soon
            as its estimate is resolved; its confidence level also
            sets the curves' Wilson bounds.

    Raises:
        ValueError: a CM1 channel or the ``adc="config"`` converter on
            the victim: the sweep grades the ideal AWGN link, unquantized
            (run a CM1 link through :func:`ranging`).
    """
    victim, network = split_network(spec)
    resolved = [build_integrator(victim, integ) for integ in integrators]
    if labels is None:
        labels = tuple(
            integ if isinstance(integ, str) else r.name
            for integ, r in zip(integrators, resolved))
    if len(labels) != len(resolved):
        raise ValueError(
            f"{len(resolved)} integrators need {len(resolved)} "
            f"labels, got {len(labels)}")
    if len(set(labels)) != len(labels):
        raise ValueError(f"duplicate sweep labels: {labels!r}")
    ebn0_grid = np.asarray(ebn0_grid, dtype=float)
    (front,), (sigmas,) = _fronts(victim, (network,), (ebn0_grid,))
    deciders = [DecisionStage(victim.config, r) for r in resolved]
    ((errors, bits),) = run_ber_sweep(
        (front,), deciders, (sigmas,), rng, target_errors=target_errors,
        max_bits=max_bits, min_bits=min_bits, chunk_bits=chunk_bits,
        adaptive=adaptive)
    return {
        label: _curve_result(ebn0_grid, errors[k], bits[k], label,
                             adaptive)
        for k, label in enumerate(labels)}


def _fronts(victim: LinkSpec, networks, grids
            ) -> tuple[list[SignalPipeline], list[np.ndarray]]:
    """The sweep fronts of *victim* with each network's interferers
    (``None``: none), and each grid's noise scales.

    ``Tx -> Channel -> Combine -> AnalogFrontEnd`` from the (memoized)
    pilot calibration of the victim; the fronts share one Tx, Channel
    and AnalogFrontEnd stage, and each network's interferers are
    SIR-calibrated against the victim in a Combine stage of its own.
    A converter in front of the decision is refused here, and a channel
    by :func:`~repro.link.backends.calibrate`.
    """
    if victim.frontend.adc == "config":
        raise ValueError(
            "the golden-model BER link has no converter: adc='config' "
            "quantizes the packet operations only (ops.run_testbench, "
            "ops.golden_packet); use adc='auto' or 'none'")
    cfg = victim.config
    cache = calibrate(victim)
    tx = TxStage(cfg)
    channel = ChannelStage()
    afe = AnalogFrontEndStage(cfg, cache.bpf,
                              victim.frontend.squarer_drive / cache.peak)
    fronts = [SignalPipeline(stages=(
        tx, channel,
        CombineStage(cfg, () if network is None else
                     build_interferer_paths(network)),
        afe)) for network in networks]
    sigmas = [np.array([noise_sigma_for_ebn0(cache.eb, float(p), cfg.fs)
                        for p in grid]) for grid in grids]
    return fronts, sigmas


def ber_curve(spec: LinkSpec | NetworkSpec, ebn0_grid,
              rng: np.random.Generator, *,
              label: str | None = None,
              integrator: str | WindowIntegrator | None = None,
              **budget: Any) -> BerResult:
    """BER versus Eb/N0: the one-integrator :func:`ber_sweep` (same
    budget keywords), labelled *label* or the resolved model's name."""
    victim, _ = split_network(spec)
    resolved = build_integrator(victim, integrator)
    (curve,) = ber_sweep(spec, ebn0_grid, rng, integrators=(resolved,),
                         labels=(label or resolved.name,),
                         **budget).values()
    return curve


def mui_ber_curve(network: NetworkSpec, ebn0_grid,
                  rng: np.random.Generator, *,
                  label: str | None = None,
                  **budget: Any) -> BerResult:
    """Multi-user BER versus Eb/N0 over a :class:`NetworkSpec`.

    The campaign-facing twin of :func:`ber_curve` for multi-user
    scenarios: a distinct top-level name keeps network campaigns
    content-addressed separately from single-link ones, and the
    explicit :class:`NetworkSpec` requirement catches a plain
    :class:`LinkSpec` being fanned out by mistake (wrap it in
    ``NetworkSpec(victim=spec)`` for an interferer-free baseline).
    """
    if not isinstance(network, NetworkSpec):
        raise TypeError("mui_ber_curve needs a NetworkSpec; wrap a "
                        "plain LinkSpec in NetworkSpec(victim=spec) "
                        "for the zero-interferer baseline")
    return ber_curve(network, ebn0_grid, rng, label=label, **budget)


#: the keywords of a :func:`mui_ber_curve` call that are not its budget.
_MUI_POINT = ("network", "ebn0_grid", "rng", "label")


def mui_draw_key(network: NetworkSpec, seed: Any,
                 budget: Mapping[str, Any]) -> tuple | None:
    """Group key of :func:`mui_ber_curve` scenarios that draw alike.

    Scenarios seeded alike, over one victim with the same number of
    interferers and with the same *budget* (every keyword but the
    network, grid, generator and label), draw the same bits and noise
    chunk for chunk: the victim's bits, one bit vector per interferer
    and one unit-noise vector.  Scenarios with one key may therefore
    run as one :func:`mui_ber_curves` sweep.  An unseeded scenario
    (*seed* ``None``) draws fresh entropy and shares with no other:
    its key is ``None``.  Budget values must be hashable.
    """
    if seed is None:
        return None
    return (seed, network.victim, network.n_interferers,
            tuple(sorted(budget.items())))


def _draws(call: Mapping[str, Any]) -> tuple:
    """``(victim, interferer count, budget)`` of a :func:`mui_ber_curve`
    call: what its draws depend on besides its generator."""
    network = call["network"]
    if not isinstance(network, NetworkSpec):
        raise TypeError("mui_ber_curves needs NetworkSpec networks")
    return (network.victim, network.n_interferers,
            {k: v for k, v in call.items() if k not in _MUI_POINT})


def mui_ber_curves(calls: Sequence[Mapping[str, Any]]
                   ) -> list[BerResult]:
    """Several :func:`mui_ber_curve` calls that share every draw (one
    :func:`mui_draw_key`), run as one sweep.

    Each chunk's bits and noise are drawn and band-passed once; each
    call keeps its own Combine stage and Eb/N0 grid, and its curve
    equals what :func:`mui_ber_curve` returns for it alone, bit for
    bit.  This is the campaign's group function for such calls
    (:class:`~repro.core.scenario.ScenarioGroup`).

    Args:
        calls: each call's keywords, generator included; the
            generators must be in one state.

    Returns:
        One curve per call, in order.
    """
    draws = _draws(calls[0])
    rng = calls[0]["rng"]
    if any(_draws(call) != draws
           or call["rng"].bit_generator.state != rng.bit_generator.state
           for call in calls):
        raise ValueError(
            "mui_ber_curves runs calls that draw alike only: one "
            "victim, interferer count, budget and generator state")
    victim, _count, budget = draws
    resolved = build_integrator(victim, budget.pop("integrator", None))
    grids = [np.asarray(call["ebn0_grid"], dtype=float) for call in calls]
    fronts, sigmas = _fronts(victim, [c["network"] for c in calls], grids)
    decider = DecisionStage(victim.config, resolved)
    counts = run_ber_sweep(fronts, (decider,), sigmas, rng, **budget)
    return [_curve_result(grid, errors[0], bits[0],
                          call.get("label") or resolved.name,
                          budget.get("adaptive"))
            for call, grid, (errors, bits) in zip(calls, grids, counts)]


def ranging(spec: LinkSpec, iterations: int,
            rng: np.random.Generator, *,
            noise_sigma: float = 1e-4) -> RangingResult:
    """Two-way ranging at ``spec.channel.distance``.

    The exchange runs through the full packet-level receiver
    (NE -> PS -> AGC -> sync -> demod) built by
    :func:`~repro.link.backends.build_receiver`, with the behavioral
    integrator model the spec installs (``"circuit"`` is its
    surrogate).
    """
    spec = _as_link_spec(spec, "ranging")
    resolved = build_integrator(spec)
    twr = TwoWayRanging(
        spec.config,
        lambda: build_receiver(spec, integrator=resolved),
        distance=spec.channel.distance,
        noise_sigma=noise_sigma,
        channel=build_channel_model(spec))
    return twr.run(iterations, rng)


def run_testbench(spec: LinkSpec, waveform, *,
                  engine: str = "compiled",
                  cosim_substeps: int = 1,
                  t_stop: float | None = None,
                  record: bool = False,
                  integrator: str | WindowIntegrator | None = None
                  ) -> AmsRunResult:
    """One mixed-signal testbench run over *waveform* (the Table-1
    unit of work): demodulate an already-conditioned waveform (post
    band-pass, at squarer drive) with ideal symbol alignment from t=0.

    Args:
        engine: kernel execution engine - ``"compiled"`` (segment
            vectorized) or ``"reference"`` (the lock-step oracle).
        cosim_substeps: circuit-level steps per kernel step when the
            spec selects the co-simulated ``"circuit"`` netlist (whose
            error-level lint rules run before any MNA assembly).
        t_stop: simulated span (default: every whole symbol).
        record: attach a waveform recorder to the result.
        integrator: model override (see
            :func:`~repro.link.backends.build_integrator`).
    """
    spec = _as_link_spec(spec, "run_testbench")
    resolved = build_integrator(spec, integrator, cosim=True)
    cfg = spec.config
    sim, harvest = build_ams_receiver(
        cfg, resolved, np.asarray(waveform, dtype=float),
        adc=build_quantizer(spec),
        cosim_substeps=cosim_substeps, record=record,
        t_hold=spec.frontend.t_hold, t_dump=spec.frontend.t_dump,
        engine=engine)
    if t_stop is None:
        n_symbols = len(waveform) // cfg.samples_per_symbol
        t_stop = n_symbols * cfg.symbol_period
    sim.run(t_stop)
    return harvest.result()


def golden_packet(spec: LinkSpec, waveform) -> AmsRunResult:
    """The golden model's decision on the kernel testbench's slot
    gating over the waveform :func:`run_testbench` takes.

    ``slot_values`` are the compared (post-ADC) values and
    ``cpu_time``/``steps`` are zero (no kernel loop runs).
    """
    spec = _as_link_spec(spec, "golden_packet")
    resolved = build_integrator(spec)
    cfg = spec.config
    waveform = np.asarray(waveform, dtype=float)
    n = len(waveform) // cfg.samples_per_symbol
    squared = np.square(
        waveform[:n * cfg.samples_per_symbol]
    ).reshape(n, 2, cfg.samples_per_slot)
    # Honor the spec's Integrate & Dump gate: the kernel testbench
    # dumps for t_dump and holds for t_hold within every slot, so
    # the golden decision integrates the same sample window.
    gate0 = int(round(spec.frontend.t_dump * cfg.fs))
    gate1 = cfg.samples_per_slot - int(round(
        spec.frontend.t_hold * cfg.fs))
    values, bits = decide_slots(
        resolved.window_outputs(squared[:, :, gate0:gate1], cfg.dt),
        build_quantizer(spec))
    return AmsRunResult(bits=bits, slot_values=values,
                        cpu_time=0.0, steps=0)
