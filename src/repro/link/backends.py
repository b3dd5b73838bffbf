"""Pluggable execution backends behind the one front door.

A :class:`Backend` turns a :class:`~repro.link.spec.LinkSpec` into
results through four uniform operations:

* :meth:`Backend.ber_point` / :meth:`Backend.ber_curve` - Monte-Carlo
  BER (the figure-6 workload),
* :meth:`Backend.packet` - demodulate an already-conditioned waveform
  with ideal symbol alignment (the Table-1 / Phase-I workload),
* :meth:`Backend.ranging` - two-way ranging through the full
  packet-level receiver (the table-2 workload).

Two implementations ship:

* :class:`FastsimBackend` - the vectorized NumPy golden model
  (Phase I; "the Matlab description" of the paper),
* :class:`KernelBackend` - the mixed-signal testbench on the AMS
  kernel's reference or compiled engine (Phases II-IV, including
  transistor-netlist co-simulation for ``integrator="circuit"``).

Both resolve components from the spec the same way (integrators via
the :mod:`repro.link.registry`, BPF/ADC/receiver via the builders
below), which is what makes the cross-backend equivalence harness in
:mod:`repro.link.equivalence` a pure substitute-and-play comparison.
"""

from __future__ import annotations

import abc
import dataclasses
import math
from typing import Any, Callable

import numpy as np

from repro.link.pipeline import (
    AnalogFrontEndStage,
    ChannelStage,
    CombineStage,
    DecisionStage,
    InterfererPath,
    SignalPipeline,
    TxStage,
    check_budget,
    keeps_sampling,
    run_ber_sweep,
)
from repro.link.registry import resolve_integrator
from repro.link.spec import InterfererSpec, LinkSpec, NetworkSpec
from repro.uwb.adc import Adc, AutoRangingAdc
from repro.uwb.agc import Agc, TwoStageAgc
from repro.uwb.bpf import BandPassFilter
from repro.uwb.channel.awgn import noise_sigma_for_ebn0
from repro.uwb.channel.ieee802154a import ChannelRealization, Cm1Channel
from repro.uwb.fastsim import (
    AdaptiveStopping,
    BerResult,
    _curve_result,
    _LinkCache,
)
from repro.uwb.frontend import Vga
from repro.uwb.integrator import WindowIntegrator, nominal_gain
from repro.uwb.ranging import RangingResult, TwoWayRanging
from repro.uwb.receiver import EnergyDetectionReceiver
from repro.uwb.system import AmsRunResult, build_ams_receiver


# ----------------------------------------------------------------------
# component builders (the only place BPF / ADC / VGA / receiver wiring
# is assembled from a spec)
# ----------------------------------------------------------------------

def build_bpf(spec: LinkSpec) -> BandPassFilter:
    """The receiver band-pass of *spec* (explicit band or
    pulse-derived)."""
    cfg = spec.config
    fe = spec.frontend
    if fe.band is None:
        return BandPassFilter.for_pulse(cfg.fs, cfg.pulse_tau,
                                        cfg.pulse_order,
                                        order=fe.bpf_order)
    return BandPassFilter(fe.band, cfg.fs, order=fe.bpf_order)


def build_adc(spec: LinkSpec) -> Adc:
    """The configuration-referred ADC of *spec* (packet receiver
    path)."""
    cfg = spec.config
    return Adc(bits=cfg.adc_bits, vref=cfg.adc_vref)


def build_quantizer(spec: LinkSpec, *, packet: bool
                    ) -> Adc | AutoRangingAdc | None:
    """The converter in front of the 2-PPM decision of *spec* (the
    ``FrontEndSpec.adc`` policy, see :data:`~repro.link.spec.ADC_MODES`).

    ``"config"`` is :func:`build_adc` and ``"none"`` no converter on
    every operation; ``"auto"`` is no converter for the golden-model
    BER sweep and an :class:`~repro.uwb.adc.AutoRangingAdc` for the
    *packet* operations.
    """
    mode = spec.frontend.adc
    if mode == "config":
        return build_adc(spec)
    if mode == "auto" and packet:
        return AutoRangingAdc(spec.config.adc_bits)
    return None


def build_channel_model(spec: LinkSpec) -> Cm1Channel | None:
    """The channel *generator* of *spec* (draws per-run realizations),
    or ``None`` for the ideal delay-only link."""
    if spec.channel.kind == "none":
        return None
    return Cm1Channel(spec.config.fs)


#: memoized deterministic channel realizations keyed by
#: ``(ChannelSpec, fs)``.  Every Eb/N0 point of a curve (and every
#: curve of a campaign over the same spec) reuses one CM1 draw instead
#: of redoing the identical multipath work; the realization is seeded
#: by the spec, so sharing cannot change any number.
_REALIZATION_MEMO: dict = {}

#: memoized pilot calibrations keyed by
#: ``(UwbConfig, ChannelSpec, FrontEndSpec)`` - everything
#: :class:`~repro.uwb.fastsim._LinkCache` depends on.
_CALIBRATION_MEMO: dict = {}

_MEMO_CAP = 128


def _memoized(memo: dict, key, build):
    hit = memo.get(key)
    if hit is None:
        hit = build()
        if len(memo) >= _MEMO_CAP:
            memo.clear()
        memo[key] = hit
    return hit


def build_channel_realization(spec: LinkSpec
                              ) -> ChannelRealization | None:
    """One deterministic channel realization for BER sweeps, seeded by
    ``spec.channel.realization_seed``.

    Memoized per ``(channel spec, fs)``: identical specs share one
    realization object across points, curves and campaigns.
    """
    model = build_channel_model(spec)
    if model is None:
        return None
    return _memoized(
        _REALIZATION_MEMO, (spec.channel, spec.config.fs),
        lambda: model.realize(
            spec.channel.distance,
            np.random.default_rng(spec.channel.realization_seed)))


def build_receiver(spec: LinkSpec, *,
                   integrator: WindowIntegrator | None = None
                   ) -> EnergyDetectionReceiver:
    """The packet-level receiver of *spec*: VGA, ADC and AGC built
    from the configuration, the band-pass and AGC policy from the
    front-end spec, the integrator from the registry."""
    cfg = spec.config
    fe = spec.frontend
    if integrator is None:
        resolved = resolve_integrator(spec.integrator, phase=spec.phase,
                                      params=spec.integrator_params,
                                      cosim=False)
    else:
        resolved = integrator
    vga = Vga(step_db=cfg.agc_steps_db, max_db=cfg.agc_range_db)
    adc = build_adc(spec)
    k = nominal_gain(resolved)
    if k is None:
        raise ValueError(
            f"integrator {type(resolved).__name__} exposes no "
            "ideal_k/k gain; the AGC needs the nominal integration "
            "constant (add an ideal_k property or pass agc= yourself)")
    if fe.agc == "two_stage":
        agc: Agc = TwoStageAgc(vga, adc, k, fill=fe.agc_fill,
                               amp_target=fe.agc_amp_target)
    else:
        agc = Agc(vga, adc, k, fill=fe.agc_fill)
    return EnergyDetectionReceiver(
        cfg, resolved, vga=vga, adc=adc, agc=agc, bpf=build_bpf(spec),
        detection_factor=fe.detection_factor,
        toa_threshold_fraction=fe.toa_threshold_fraction)


def calibrate(spec: LinkSpec) -> _LinkCache:
    """Pilot calibration of *spec*: per-bit received energy ``eb`` and
    clean peak amplitude ``peak`` after channel + band-pass (the
    quantities every BER point needs for noise sizing and drive
    scaling).

    Memoized per ``(config, channel spec, front end)``: every Eb/N0
    point - and every curve of a campaign over the same link - shares
    one pilot measurement instead of re-filtering an identical pilot.
    """
    return _memoized(
        _CALIBRATION_MEMO, (spec.config, spec.channel, spec.frontend),
        lambda: _LinkCache(spec.config, build_channel_realization(spec),
                           build_bpf(spec)))


def build_interferer_realization(intf: InterfererSpec, spec: LinkSpec
                                 ) -> ChannelRealization | None:
    """The interferer's own channel realization (independent CM1 draw
    from its ``realization_seed``), or ``None`` for an ideal path.

    Exactly the victim's construction path, pointed at the
    interferer's :class:`~repro.link.spec.ChannelSpec` - victim and
    interferer channels can never diverge in how they are built.
    """
    return build_channel_realization(
        dataclasses.replace(spec, channel=intf.channel))


def build_interferer_paths(network: NetworkSpec, *,
                           cache: _LinkCache | None = None
                           ) -> tuple[InterfererPath, ...]:
    """Resolve a :class:`NetworkSpec`'s interferers into calibrated
    :class:`~repro.link.pipeline.InterfererPath` values.

    SIR calibration: with ``rel_power_db`` set, the interferer's
    amplitude is chosen so that its received per-bit energy (its own
    pilot through its own channel and the victim's band-pass) relative
    to the victim's received per-bit energy equals ``rel_power_db``
    exactly.  With ``rel_power_db=None`` the amplitude is the victim's
    unit transmit amplitude and the received ratio emerges from the
    channels' path losses (the near-far configuration).

    Args:
        network: the multi-user scenario.
        cache: the victim's pilot calibration, if the caller already
            has one (avoids recomputing the pilot).
    """
    victim = network.victim
    cfg = victim.config
    if cache is None:
        cache = calibrate(victim)
    paths = []
    for intf in network.interferers:
        realization = build_interferer_realization(intf, victim)
        if intf.rel_power_db is None:
            amplitude = 1.0
        else:
            if realization is None and cache.channel is None:
                # Identical pilot chains measure identical energies;
                # reuse the victim's calibration outright.
                pilot = cache
            else:
                pilot = _LinkCache(cfg, realization, cache.bpf)
            amplitude = math.sqrt(10.0 ** (intf.rel_power_db / 10.0)
                                  * cache.eb / pilot.eb)
        paths.append(InterfererPath(
            amplitude=amplitude,
            offset_samples=int(round(intf.timing_offset * cfg.fs)),
            channel=realization))
    return tuple(paths)


def draw_stimulus(spec: LinkSpec, ebn0_db: float, n: int,
                  rng: np.random.Generator
                  ) -> tuple[np.ndarray, np.ndarray]:
    """One seeded noisy burst of *n* symbols at the squarer input.

    The pipeline's Tx -> Channel -> Combine front draws the bits and
    the AWGN at *ebn0_db* (in that order, from *rng*); the band-pass
    and drive scaling of the calibrated *spec* follow.  This is the
    stimulus of every decision the kernel backend grades.

    Returns:
        ``(bits, driven)``: the transmitted bits and the waveform to
        hand to :meth:`Backend.packet`.
    """
    cfg = spec.config
    cache = calibrate(spec)
    sigma = noise_sigma_for_ebn0(cache.eb, float(ebn0_db), cfg.fs)
    state = SignalPipeline(stages=(
        TxStage(cfg),
        ChannelStage(cfg, cache.channel),
        CombineStage(cfg, sigma),
    )).run_chunk(n, rng)
    scale = spec.frontend.squarer_drive / cache.peak
    return state.bits, scale * cache.bpf(state.noisy)[
        :n * cfg.samples_per_symbol]


def _as_link_spec(spec: LinkSpec | NetworkSpec,
                  operation: str) -> LinkSpec:
    """Reject :class:`NetworkSpec` where only single links run."""
    if isinstance(spec, NetworkSpec):
        raise TypeError(
            f"{operation} runs single links only; multi-user "
            "NetworkSpec is supported by FastsimBackend.ber_point / "
            "ber_curve (the golden model synthesizes and sums the "
            "per-transmitter waveforms)")
    return spec


# ----------------------------------------------------------------------
# the backend protocol
# ----------------------------------------------------------------------

class Backend(abc.ABC):
    """Uniform execution interface over a :class:`LinkSpec`.

    Every operation takes the spec first and an explicit NumPy
    generator where entropy is consumed; the optional ``integrator=``
    override substitutes a concrete model instance (e.g. a
    characterized surrogate from
    :func:`repro.core.characterize.build_surrogate`) for the spec's
    registry selection - the substitute-and-play escape hatch.
    """

    #: registry name of the backend (see :func:`get_backend`).
    name: str = "backend"

    def _integrator(self, spec: LinkSpec,
                    override: str | WindowIntegrator | None,
                    cosim: bool) -> WindowIntegrator | str:
        return resolve_integrator(
            override if override is not None else spec.integrator,
            phase=spec.phase, params=spec.integrator_params,
            cosim=cosim)

    @abc.abstractmethod
    def ber_point(self, spec: LinkSpec, ebn0_db: float,
                  rng: np.random.Generator, *,
                  integrator: str | WindowIntegrator | None = None,
                  **budget: Any) -> tuple[int, int]:
        """Monte-Carlo ``(errors, bits)`` at one Eb/N0 point."""

    @abc.abstractmethod
    def ber_curve(self, spec: LinkSpec, ebn0_grid,
                  rng: np.random.Generator, *,
                  label: str | None = None,
                  integrator: str | WindowIntegrator | None = None,
                  **budget: Any) -> BerResult:
        """BER versus Eb/N0 (returns Wilson-bounded counters)."""

    @abc.abstractmethod
    def packet(self, spec: LinkSpec, waveform: np.ndarray, *,
               integrator: str | WindowIntegrator | None = None,
               **options: Any):
        """Demodulate an already-conditioned waveform (post band-pass,
        at squarer drive) with ideal symbol alignment from t=0.

        Returns an object exposing ``bits`` and ``slot_values``.
        """

    def ranging(self, spec: LinkSpec, iterations: int,
                rng: np.random.Generator, *,
                integrator: str | WindowIntegrator | None = None,
                noise_sigma: float = 1e-4,
                tx_amplitude: float = 1.0) -> RangingResult:
        """Two-way ranging at ``spec.channel.distance``.

        The exchange runs through the full packet-level receiver
        (NE -> PS -> AGC -> sync -> demod) built by
        :func:`build_receiver`; backends share this waveform-level
        implementation and differ only through the integrator model
        the spec installs.
        """
        spec = _as_link_spec(spec, "ranging")
        resolved = self._integrator(spec, integrator, cosim=False)
        if not isinstance(resolved, WindowIntegrator):
            raise ValueError("ranging needs a behavioral integrator "
                             "model (co-simulation is not supported in "
                             "the packet-level receiver)")
        twr = TwoWayRanging(
            spec.config,
            lambda: build_receiver(spec, integrator=resolved),
            distance=spec.channel.distance,
            tx_amplitude=tx_amplitude,
            noise_sigma=noise_sigma,
            channel=build_channel_model(spec))
        return twr.run(iterations, rng)


def split_network(spec: LinkSpec | NetworkSpec
                  ) -> tuple[LinkSpec, NetworkSpec | None]:
    """``(victim, network)`` of a spec that may be multi-user
    (``network`` is ``None`` for a plain link)."""
    if isinstance(spec, NetworkSpec):
        return spec.victim, spec
    return spec, None


class FastsimBackend(Backend):
    """The vectorized Monte-Carlo golden model (Phase I).

    The BER operations additionally accept a
    :class:`~repro.link.spec.NetworkSpec`: the staged pipeline
    synthesizes one waveform per transmitter, sums the interferers at
    their calibrated amplitudes, and grades the victim's bits."""

    name = "fastsim"

    def ber_point(self, spec: LinkSpec | NetworkSpec, ebn0_db: float,
                  rng: np.random.Generator, *,
                  integrator: str | WindowIntegrator | None = None,
                  **budget: Any) -> tuple[int, int]:
        """The 1x1 :meth:`sweep` (same budget keywords)."""
        (curve,) = self.sweep(spec, (float(ebn0_db),), rng,
                              integrators=(integrator,),
                              **budget).values()
        return int(curve.errors[0]), int(curve.bits[0])

    def ber_curve(self, spec: LinkSpec | NetworkSpec, ebn0_grid,
                  rng: np.random.Generator, *,
                  label: str | None = None,
                  integrator: str | WindowIntegrator | None = None,
                  **budget: Any) -> BerResult:
        """A one-integrator :meth:`sweep` (same budget keywords),
        labelled *label* or the resolved model's name."""
        victim, _ = split_network(spec)
        resolved = self._integrator(victim, integrator, cosim=False)
        (curve,) = self.sweep(spec, ebn0_grid, rng,
                              integrators=(resolved,),
                              labels=(label or resolved.name,),
                              **budget).values()
        return curve

    def sweep(self, spec: LinkSpec | NetworkSpec, ebn0_grid,
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

        The only place the golden-model BER pipeline is built:
        ``Tx -> Channel -> Combine -> AnalogFrontEnd`` from the
        (memoized) pilot calibration of the victim, any interferers
        SIR-calibrated against it, then
        :func:`~repro.link.pipeline.run_ber_sweep`.  Curve ``k`` is
        bit-identical to a one-integrator sweep of ``integrators[k]``
        with a generator seeded like *rng* - the batch only
        reorganizes the arithmetic, never the entropy stream.

        Args:
            integrators: registry names or model instances (``None``
                selects the spec's integrator); their decision stages
                share the Tx/channel/AFE work.
            labels: one result key per integrator (defaults to the
                registry name / model name).
            target_errors / max_bits / min_bits: stopping rule.
            chunk_bits: symbols per vectorized chunk.
            adaptive: optional sequential policy ending a cell as soon
                as its estimate is resolved; its confidence level also
                sets the curves' Wilson bounds.
        """
        victim, network = split_network(spec)
        resolved = [self._integrator(victim, integ, cosim=False)
                    for integ in integrators]
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
        cfg = victim.config
        cache = calibrate(victim)
        interferers = (build_interferer_paths(network, cache=cache)
                       if network is not None else ())
        ebn0_grid = np.asarray(ebn0_grid, dtype=float)
        sigmas = np.array([noise_sigma_for_ebn0(cache.eb, float(p), cfg.fs)
                           for p in ebn0_grid])
        front = SignalPipeline(stages=(
            TxStage(cfg),
            ChannelStage(cfg, cache.channel),
            CombineStage(cfg, 0.0, interferers),
            AnalogFrontEndStage(cfg, cache.bpf,
                                victim.frontend.squarer_drive
                                / cache.peak),
        ))
        adc = build_quantizer(victim, packet=False)
        deciders = [DecisionStage(cfg, r, adc) for r in resolved]
        errors, bits = run_ber_sweep(
            front, deciders, sigmas, rng, target_errors=target_errors,
            max_bits=max_bits, min_bits=min_bits, chunk_bits=chunk_bits,
            adaptive=adaptive)
        return {
            label: _curve_result(ebn0_grid, errors[k], bits[k],
                                 label, adaptive)
            for k, label in enumerate(labels)}

    def packet(self, spec: LinkSpec, waveform: np.ndarray, *,
               integrator: str | WindowIntegrator | None = None
               ) -> AmsRunResult:
        """The golden model's decision on the kernel testbench's slot
        gating; ``slot_values`` are the compared (post-ADC) values and
        ``cpu_time``/``steps`` are zero (no kernel loop runs)."""
        spec = _as_link_spec(spec, "FastsimBackend.packet")
        resolved = self._integrator(spec, integrator, cosim=False)
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
        values, bits = DecisionStage(
            cfg, resolved, build_quantizer(spec, packet=True)
        ).decide(squared[:, :, gate0:gate1])
        return AmsRunResult(bits=bits, slot_values=values,
                            cpu_time=0.0, steps=0)


class KernelBackend(Backend):
    """The mixed-signal AMS-kernel testbench (Phases II-IV).

    Args:
        engine: kernel execution engine - ``"compiled"`` (segment
            vectorized) or ``"reference"`` (the lock-step oracle).
        cosim_substeps: circuit-level steps per kernel step when the
            spec selects the co-simulated netlist.
        preflight: statically lint a co-simulated netlist (error-level
            rules) before any MNA assembly; a broken circuit raises
            :class:`~repro.spice.errors.NetlistLintError` naming the
            rule and nodes.  ``False`` opts out.
    """

    name = "kernel"

    def __init__(self, engine: str = "compiled",
                 cosim_substeps: int = 1,
                 preflight: bool = True):
        self.engine = engine
        self.cosim_substeps = int(cosim_substeps)
        self.preflight = bool(preflight)

    def packet(self, spec: LinkSpec, waveform: np.ndarray, *,
               integrator: str | WindowIntegrator | None = None,
               t_stop: float | None = None,
               record: bool = False) -> AmsRunResult:
        spec = _as_link_spec(spec, "KernelBackend.packet")
        resolved = self._integrator(spec, integrator, cosim=True)
        cfg = spec.config
        sim, harvest = build_ams_receiver(
            cfg, resolved, np.asarray(waveform, dtype=float),
            adc=build_quantizer(spec, packet=True),
            cosim_substeps=self.cosim_substeps, record=record,
            t_hold=spec.frontend.t_hold, t_dump=spec.frontend.t_dump,
            engine=self.engine, preflight=self.preflight)
        if t_stop is None:
            n_symbols = len(waveform) // cfg.samples_per_symbol
            t_stop = n_symbols * cfg.symbol_period
        sim.run(t_stop)
        return harvest.result()

    def ber_point(self, spec: LinkSpec, ebn0_db: float,
                  rng: np.random.Generator, *,
                  integrator: str | WindowIntegrator | None = None,
                  target_errors: int = 25,
                  max_bits: int = 1_500,
                  min_bits: int = 200,
                  chunk_bits: int = 100,
                  adaptive: AdaptiveStopping | None = None
                  ) -> tuple[int, int]:
        """Monte-Carlo BER with kernel-demodulated decisions.

        Each chunk's stimulus comes from :func:`draw_stimulus` (the
        golden model's Tx/channel/noise front, band-pass and drive
        scaling); only the decision path runs through the event-driven
        testbench.  The default budget is far smaller than fastsim's -
        each chunk is a full kernel simulation.
        """
        spec = _as_link_spec(spec, "KernelBackend.ber_point")
        check_budget(target_errors=target_errors, max_bits=max_bits,
                     min_bits=min_bits, chunk_bits=chunk_bits)
        rule = dict(target_errors=target_errors, max_bits=max_bits,
                    min_bits=min_bits, adaptive=adaptive)
        errors = 0
        bits_done = 0
        while keeps_sampling(errors, bits_done, **rule):
            n = min(chunk_bits, max_bits - bits_done)
            bits, driven = draw_stimulus(spec, ebn0_db, n, rng)
            decided = self.packet(spec, driven,
                                  integrator=integrator).bits
            errors += int(np.count_nonzero(decided != bits[:len(decided)]))
            bits_done += n
        return errors, bits_done

    def ber_curve(self, spec: LinkSpec, ebn0_grid,
                  rng: np.random.Generator, *,
                  label: str | None = None,
                  integrator: str | WindowIntegrator | None = None,
                  target_errors: int = 25,
                  max_bits: int = 1_500,
                  min_bits: int = 200,
                  chunk_bits: int = 100,
                  adaptive: AdaptiveStopping | None = None) -> BerResult:
        """Serial BER sweep, one kernel-demodulated :meth:`ber_point`
        per Eb/N0 point (fan-out belongs at the campaign layer)."""
        ebn0_grid = np.asarray(ebn0_grid, dtype=float)
        points = [self.ber_point(spec, float(point), rng,
                                 integrator=integrator,
                                 target_errors=target_errors,
                                 max_bits=max_bits, min_bits=min_bits,
                                 chunk_bits=chunk_bits, adaptive=adaptive)
                  for point in ebn0_grid]
        errors = np.array([e for e, _ in points], dtype=np.int64)
        bits = np.array([b for _, b in points], dtype=np.int64)
        if label is None:
            resolved = self._integrator(spec, integrator, cosim=True)
            label = resolved if isinstance(resolved, str) \
                else resolved.name
        return _curve_result(ebn0_grid, errors, bits, label, adaptive)


# ----------------------------------------------------------------------
# backend registry
# ----------------------------------------------------------------------

#: backend name -> constructor.
BACKENDS: dict[str, Callable[..., Backend]] = {
    FastsimBackend.name: FastsimBackend,
    KernelBackend.name: KernelBackend,
}


def get_backend(name: str | Backend, **kwargs: Any) -> Backend:
    """Instantiate a backend by name (instances pass through).

    Extra keyword arguments go to the constructor, e.g.
    ``get_backend("kernel", engine="reference")``.
    """
    if isinstance(name, Backend):
        return name
    try:
        factory = BACKENDS[name]
    except KeyError:
        raise ValueError(f"unknown backend {name!r}; registered: "
                         f"{', '.join(sorted(BACKENDS))}") from None
    return factory(**kwargs)
