"""Declarative link description: the one front door's vocabulary.

The paper's methodology hinges on *one unchanged testbench* driven
across refinement phases by substituting implementations.  A
:class:`LinkSpec` is that testbench's declarative description for this
repository: the link configuration, the channel, the analog front end
and the integrator selection (a name in :data:`INTEGRATORS`) in one
frozen, hashable, serializable value.  Every operation of
:mod:`repro.link.ops` consumes the same spec, so an experiment written
against a spec runs unchanged on the vectorized golden model or the
AMS kernel testbench.

Multi-user scenarios compose on top: an :class:`InterfererSpec`
describes one interfering transmitter (received power relative to the
victim and timing offset), and a :class:`NetworkSpec`
bundles a victim :class:`LinkSpec` with any number of interferers -
the declarative input of the multi-user-interference / coexistence
workloads (the BER operations ``ops.ber_sweep`` / ``ops.ber_curve`` /
``ops.mui_ber_curve`` accept it wherever they accept a ``LinkSpec``).

Specs round-trip through :mod:`repro.core.serialization` (they are
plain frozen dataclasses), so a campaign content address hashes them
with :func:`~repro.core.serialization.stable_hash` like any other
scenario keyword.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Mapping

from repro.uwb.config import UwbConfig
from repro.uwb.integrator import (
    CircuitSurrogateIntegrator,
    IdealIntegrator,
    TwoPoleIntegrator,
)

#: channel selections understood by the builders.
CHANNEL_KINDS = ("none", "cm1")
#: ADC policies - the converter in front of the packet operations'
#: 2-PPM slot decision (``ops.run_testbench``, ``ops.golden_packet``),
#: resolved once by :func:`repro.link.backends.build_quantizer` and
#: applied by :func:`repro.uwb.adc.decide_slots`:
#:
#: * ``"auto"``: an auto-ranged converter at ``UwbConfig.adc_bits``
#:   whose full scale is 1.05x the burst's slot peak (a converged-AGC
#:   stand-in);
#: * ``"config"``: the ``UwbConfig.adc_bits``/``adc_vref`` converter;
#: * ``"none"``: unquantized.
#:
#: The golden-model BER operations (``ops.ber_sweep``/``ber_curve``/
#: ``mui_ber_curve``) never quantize: they run ``"auto"`` and
#: ``"none"`` alike and reject ``"config"``.  The packet-level receiver
#: behind ``ranging`` always converts with the ``"config"`` ADC its AGC
#: targets.
ADC_MODES = ("auto", "config", "none")
#: AGC policies of the packet-level receiver.
AGC_MODES = ("single", "two_stage")
#: integrator models by name - the Integrate & Dump architectures the
#: unchanged testbench can be rebound to (substitute-and-play).  Each
#: model's refinement phase is its ``phase`` class attribute.
#: ``"circuit"`` is the transistor netlist co-simulated in the loop:
#: :func:`repro.link.backends.build_integrator` resolves it to the
#: co-simulation marker when the caller hosts the netlist
#: (``ops.run_testbench``) and to the behavioral surrogate otherwise.
INTEGRATORS = {
    "ideal": IdealIntegrator,
    "two_pole": TwoPoleIntegrator,
    "surrogate": CircuitSurrogateIntegrator,
    "circuit": CircuitSurrogateIntegrator,
}


@dataclass(frozen=True)
class ChannelSpec:
    """Propagation channel selection.

    Attributes:
        kind: ``"none"`` (ideal delay-only link) or ``"cm1"`` (the TG4a
            residential-LOS multipath model the paper uses).  The
            golden-model BER operations run the ideal link only; a
            ``"cm1"`` link runs through the packet receiver of
            ``ops.ranging``, which draws a fresh realization per
            exchange from the run's generator.
        distance: link distance in meters (drives path loss and flight
            time; the paper's TWR experiment sits at 9.9 m).
    """

    kind: str = "none"
    distance: float = 9.9

    def __post_init__(self) -> None:
        if self.kind not in CHANNEL_KINDS:
            raise ValueError(f"unknown channel kind {self.kind!r}; "
                             f"choose from {CHANNEL_KINDS}")
        if self.distance <= 0:
            raise ValueError("distance must be positive")


@dataclass(frozen=True)
class FrontEndSpec:
    """Analog front end and receiver policies.

    Attributes:
        band: explicit (low, high) BPF corners in Hz; ``None`` derives
            the band from the configured pulse spectrum.
        bpf_order: Butterworth order per corner.
        squarer_drive: peak voltage presented to the squarer input by
            the BER stimulus (the AGC operating point; the integrator's
            ~100 mV linear range makes this the overdrive knob).
        adc: one of :data:`ADC_MODES`.
        agc: one of :data:`AGC_MODES` (packet-level receiver only).
        agc_fill: ADC full-scale fill fraction targeted by the AGC.
        agc_amp_target: squarer-output amplitude target of the
            two-stage AGC's first stage (V).
        detection_factor: preamble-sense threshold in noise std-devs.
        toa_threshold_fraction: ADC-referred TOA crossing fraction.
        t_dump / t_hold: Integrate & Dump slot timing - the reset
            interval at the head of each slot and the hold interval at
            its tail.  Both backends' ``packet`` operation honors this
            gate, which is what makes their decisions comparable
            sample for sample (Phase-I overlap).
    """

    band: tuple[float, float] | None = None
    bpf_order: int = 4
    squarer_drive: float = 0.05
    adc: str = "auto"
    agc: str = "single"
    agc_fill: float = 0.85
    agc_amp_target: float = 0.08
    detection_factor: float = 6.0
    toa_threshold_fraction: float = 0.10
    t_dump: float = 2e-9
    t_hold: float = 2e-9

    def __post_init__(self) -> None:
        if self.band is not None:
            low, high = self.band
            if not 0.0 < low < high:
                raise ValueError("band needs 0 < low < high")
            object.__setattr__(self, "band", (float(low), float(high)))
        if self.bpf_order < 1:
            raise ValueError("bpf_order must be >= 1")
        if self.squarer_drive <= 0:
            raise ValueError("squarer_drive must be positive")
        if self.adc not in ADC_MODES:
            raise ValueError(f"unknown adc mode {self.adc!r}; "
                             f"choose from {ADC_MODES}")
        if self.agc not in AGC_MODES:
            raise ValueError(f"unknown agc mode {self.agc!r}; "
                             f"choose from {AGC_MODES}")
        if not 0.0 < self.agc_fill <= 1.0:
            raise ValueError("agc_fill must be in (0, 1]")
        if self.agc_amp_target <= 0:
            raise ValueError("agc_amp_target must be positive")
        if not 0.0 < self.toa_threshold_fraction < 1.0:
            raise ValueError("toa_threshold_fraction must be in (0, 1)")
        if self.t_dump < 0 or self.t_hold < 0:
            raise ValueError("t_dump and t_hold must be non-negative")


@dataclass(frozen=True)
class LinkSpec:
    """The one declarative description of a simulated link.

    Attributes:
        config: link timing/sampling configuration.
        channel: propagation channel selection.
        frontend: front-end and receiver policies.
        integrator: integrator model by name, one of
            :data:`INTEGRATORS`: ``"ideal"`` (Phase II), ``"two_pole"``
            (Phase IV), ``"surrogate"`` / ``"circuit"`` (Phase III).
        integrator_params: constructor overrides of the named model as
            a sorted tuple of ``(name, value)`` pairs (a mapping is
            accepted and normalized), e.g. ``{"fp2_hz": 3e9}`` for the
            noise-shaping sweep.
    """

    config: UwbConfig = UwbConfig()
    channel: ChannelSpec = ChannelSpec()
    frontend: FrontEndSpec = FrontEndSpec()
    integrator: str = "ideal"
    integrator_params: tuple[tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        self.config.validate()
        if self.frontend.t_dump + self.frontend.t_hold >= self.config.slot:
            raise ValueError("t_dump + t_hold must fit inside a slot")
        if not isinstance(self.integrator, str) or not self.integrator:
            raise TypeError("integrator must be a model name; pass "
                            "model *instances* as the integrator= "
                            "override of the repro.link.ops functions")
        if self.integrator not in INTEGRATORS:
            raise ValueError(f"unknown integrator {self.integrator!r}; "
                             f"choose from {sorted(INTEGRATORS)}")
        params = self.integrator_params
        if isinstance(params, Mapping):
            params = params.items()
        normalized = tuple(sorted((str(k), v) for k, v in params))
        object.__setattr__(self, "integrator_params", normalized)

    # -- derived views -------------------------------------------------

    def params_dict(self) -> dict[str, Any]:
        """``integrator_params`` as a keyword mapping."""
        return dict(self.integrator_params)

    # -- evolution helpers ---------------------------------------------

    def with_frontend(self, **changes: Any) -> "LinkSpec":
        """Copy with :class:`FrontEndSpec` fields changed."""
        return replace(self, frontend=replace(self.frontend, **changes))


@dataclass(frozen=True)
class InterfererSpec:
    """One interfering transmitter of a multi-user scenario.

    The interferer transmits the same 2-PPM signaling as the victim
    (same pulse, same symbol timing base) over the victim's ideal link,
    with independent random payload bits, entering the victim's
    receiver through the :class:`~repro.link.pipeline.CombineStage`.

    Attributes:
        rel_power_db: received interferer power relative to the
            victim's received power, in dB (the negated
            signal-to-interference ratio: ``rel_power_db = -SIR``).
            Both transmitters share the victim's pulse and band-pass,
            so the value is an exact *received* power ratio.  A
            near-far scenario sets it from the two distances through
            :func:`repro.uwb.channel.ieee802154a.path_loss_db`
            (``repro.experiments.mui_network.near_far_network``).
        timing_offset: offset of the interferer's symbol clock relative
            to the victim's, in seconds (positive = interferer late).
            Applied as a circular shift within each Monte-Carlo chunk;
            an offset of 0 means chip-aligned transmitters.
    """

    rel_power_db: float = 0.0
    timing_offset: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "rel_power_db", float(self.rel_power_db))
        object.__setattr__(self, "timing_offset",
                           float(self.timing_offset))


@dataclass(frozen=True)
class NetworkSpec:
    """A victim link plus N interfering transmitters.

    The declarative input of the multi-user-interference and
    coexistence workloads: :func:`repro.link.ops.mui_ber_curve` (and
    ``ops.ber_curve`` / ``ops.ber_sweep``) accept a ``NetworkSpec``
    wherever they accept a :class:`LinkSpec`, grading the victim's
    bits while every interferer's waveform is summed into the chunk.
    With an empty interferer tuple the network degenerates to its
    victim link exactly (bit-identical counters).

    Attributes:
        victim: the link under test (its Eb/N0 defines the noise, its
            frontend/integrator the receiver).
        interferers: interfering transmitters, in synthesis order
            (their bit draws consume the scenario generator in this
            order, so the tuple order is part of the content identity).
    """

    victim: LinkSpec = LinkSpec()
    interferers: tuple[InterfererSpec, ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.victim, LinkSpec):
            raise TypeError("victim must be a LinkSpec, got "
                            f"{type(self.victim).__name__}")
        interferers = tuple(self.interferers)
        for intf in interferers:
            if not isinstance(intf, InterfererSpec):
                raise TypeError("interferers must be InterfererSpec "
                                f"values, got {type(intf).__name__}")
        object.__setattr__(self, "interferers", interferers)

    @property
    def n_interferers(self) -> int:
        return len(self.interferers)
