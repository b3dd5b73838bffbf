"""Spec -> component builders: the one place a link is assembled.

Every operation of :mod:`repro.link.ops` builds its components from a
:class:`~repro.link.spec.LinkSpec` through the functions here:

* :func:`build_integrator` - the integrator model (a name in
  :data:`~repro.link.spec.INTEGRATORS` or a substitute instance),
* :func:`build_bpf` / :func:`build_adc` / :func:`build_quantizer` /
  :func:`build_receiver` - the band-pass, converter and packet-level
  receiver wiring,
* :func:`build_channel_model` - the CM1 channel generator of the
  packet receiver's ranging exchange,
* :func:`calibrate` / :func:`build_interferer_paths` - the pilot
  calibration and the SIR-calibrated multi-user paths of the
  golden-model BER link (the ideal AWGN link, no converter in the
  sweep),
* :func:`draw_stimulus` - one seeded noisy burst at the squarer input
  (the Phase-I stimulus graded by golden model and kernel alike).

Sharing the builders is what makes the golden-model versus kernel
comparison of :mod:`repro.link.equivalence` a pure substitute-and-play
comparison.
"""

from __future__ import annotations

import math

import numpy as np

from repro.link.pipeline import (
    ChannelStage,
    CombineStage,
    InterfererPath,
    SignalPipeline,
    TxStage,
)
from repro.link.spec import (
    INTEGRATORS,
    LinkSpec,
    NetworkSpec,
)
from repro.obs import trace as _trace
from repro.uwb.adc import Adc, AutoRangingAdc
from repro.uwb.agc import Agc, TwoStageAgc
from repro.uwb.bpf import BandPassFilter
from repro.uwb.channel.awgn import noise_sigma_for_ebn0
from repro.uwb.channel.ieee802154a import Cm1Channel
from repro.uwb.config import UwbConfig
from repro.uwb.frontend import Vga
from repro.uwb.integrator import WindowIntegrator, nominal_gain
from repro.uwb.modulation import ppm_waveform
from repro.uwb.receiver import EnergyDetectionReceiver
from repro.uwb.system import COSIM


# ----------------------------------------------------------------------
# component builders (the only place integrator / BPF / ADC / VGA /
# receiver wiring is assembled from a spec)
# ----------------------------------------------------------------------

def build_integrator(spec: LinkSpec,
                     integrator: str | WindowIntegrator | None = None,
                     *, cosim: bool = False) -> WindowIntegrator | str:
    """The integrator model of *spec*: *integrator* (a name in
    :data:`~repro.link.spec.INTEGRATORS` or a substitute instance,
    e.g. a characterized surrogate from
    :func:`repro.core.characterize.build_surrogate`, passed through)
    or, when ``None``, ``spec.integrator``; a name is built with
    ``spec.integrator_params``.

    With ``cosim=True`` the ``"circuit"`` name resolves to the
    :data:`~repro.uwb.system.COSIM` marker (the kernel testbench hosts
    the netlist); otherwise to its behavioral surrogate.

    Raises:
        ValueError: unknown name, or ``integrator_params`` on the
            co-simulated ``"circuit"``.
    """
    if isinstance(integrator, WindowIntegrator):
        return integrator
    name = spec.integrator if integrator is None else integrator
    if not isinstance(name, str):
        raise TypeError(f"integrator spec must be a name or a "
                        f"WindowIntegrator, not {type(name).__name__}")
    if name not in INTEGRATORS:
        raise ValueError(f"unknown integrator {name!r}; choose from "
                         f"{sorted(INTEGRATORS)}")
    params = spec.params_dict()
    if name == COSIM and cosim:
        if params:
            # Fail with intent: the co-simulated netlist has no
            # behavioral constructor to parameterize.
            raise ValueError(
                "the co-simulated 'circuit' integrator takes no "
                "integrator_params; parameterize the behavioral "
                "'surrogate'/'two_pole' models instead")
        return COSIM
    return INTEGRATORS[name](**params)


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


def build_quantizer(spec: LinkSpec) -> Adc | AutoRangingAdc | None:
    """The converter in front of the packet operations' 2-PPM
    decision (the ``FrontEndSpec.adc`` policy, see
    :data:`~repro.link.spec.ADC_MODES`): :func:`build_adc` for
    ``"config"``, an :class:`~repro.uwb.adc.AutoRangingAdc` for
    ``"auto"`` and no converter for ``"none"``.
    """
    mode = spec.frontend.adc
    if mode == "config":
        return build_adc(spec)
    if mode == "auto":
        return AutoRangingAdc(spec.config.adc_bits)
    return None


def build_channel_model(spec: LinkSpec) -> Cm1Channel | None:
    """The channel *generator* of *spec* (draws per-run realizations),
    or ``None`` for the ideal delay-only link."""
    if spec.channel.kind == "none":
        return None
    return Cm1Channel(spec.config.fs)


#: memoized pilot calibrations keyed by ``(UwbConfig, FrontEndSpec)``
#: - everything :class:`_LinkCache` depends on.
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


def build_receiver(spec: LinkSpec, *,
                   integrator: WindowIntegrator | None = None
                   ) -> EnergyDetectionReceiver:
    """The packet-level receiver of *spec*: VGA, ADC and AGC built
    from the configuration, the band-pass and AGC policy from the
    front-end spec, the integrator from :func:`build_integrator`."""
    cfg = spec.config
    fe = spec.frontend
    resolved = build_integrator(spec, integrator)
    vga = Vga(step_db=cfg.agc_steps_db, max_db=cfg.agc_range_db)
    adc = build_adc(spec)
    k = nominal_gain(resolved)
    if k is None:
        raise ValueError(
            f"integrator {type(resolved).__name__} exposes no "
            "ideal_k/k gain; the AGC needs the nominal integration "
            "constant (add an ideal_k property, or build an "
            "EnergyDetectionReceiver from parts with your own agc)")
    if fe.agc == "two_stage":
        agc: Agc = TwoStageAgc(vga, adc, k, fill=fe.agc_fill,
                               amp_target=fe.agc_amp_target)
    else:
        agc = Agc(vga, adc, k, fill=fe.agc_fill)
    return EnergyDetectionReceiver(
        cfg, resolved, vga=vga, adc=adc, agc=agc, bpf=build_bpf(spec),
        detection_factor=fe.detection_factor,
        toa_threshold_fraction=fe.toa_threshold_fraction)


class _LinkCache:
    """Per-configuration precomputation shared across Eb/N0 points: the
    pilot calibration :func:`calibrate` memoizes."""

    def __init__(self, config: UwbConfig, bpf: BandPassFilter):
        self.config = config
        self.bpf = bpf
        # Reference energy per bit and peak amplitude measured on a
        # noiseless filtered pilot (one pulse per bit -> Eb = pulse
        # energy after the filter), truncated to whole symbols like the
        # data path of the BER sweep.
        pilot_bits = np.zeros(8, dtype=np.int8)
        n_samples = len(pilot_bits) * config.samples_per_symbol
        filtered = self.bpf(ppm_waveform(pilot_bits, config))[:n_samples]
        self.eb = float(np.sum(filtered ** 2) * config.dt / len(pilot_bits))
        self.peak = float(np.max(np.abs(filtered)))
        if self.eb <= 0:
            raise ValueError("degenerate link: zero received energy")


def calibrate(spec: LinkSpec) -> _LinkCache:
    """Pilot calibration of *spec*: per-bit received energy ``eb`` and
    clean peak amplitude ``peak`` after the band-pass (the quantities
    every BER point needs for noise sizing and drive scaling).

    Memoized per ``(config, front end)``: every Eb/N0 point - and every
    curve of a campaign over the same link - shares one pilot
    measurement instead of re-filtering an identical pilot.

    Raises:
        ValueError: *spec* has a channel.  The golden-model BER link is
            the ideal AWGN link; a CM1 link runs through the packet
            receiver of :func:`repro.link.ops.ranging`.
    """
    if spec.channel.kind != "none":
        raise ValueError(
            f"the golden-model BER link has no {spec.channel.kind!r} "
            "channel: it is the ideal AWGN link; run a multipath link "
            "through the packet receiver of ops.ranging")
    return _memoized(
        _CALIBRATION_MEMO, (spec.config, spec.frontend),
        lambda: _calibrated(spec))


def _calibrated(spec: LinkSpec) -> _LinkCache:
    # One span over the whole build: on a cold run the band-pass design
    # costs more than the pilot itself.
    with _trace.span("link.calibrate"):
        return _LinkCache(spec.config, build_bpf(spec))


def build_interferer_paths(network: NetworkSpec, *,
                           cache: _LinkCache | None = None
                           ) -> tuple[InterfererPath, ...]:
    """Resolve a :class:`NetworkSpec`'s interferers into calibrated
    :class:`~repro.link.pipeline.InterfererPath` values.

    SIR calibration: an interferer sends the victim's pulse train
    through the victim's ideal link, so its received per-bit energy
    relative to the victim's equals ``rel_power_db`` exactly at
    amplitude ``sqrt(10^(rel_power_db / 10))``.

    Args:
        network: the multi-user scenario.
        cache: the victim's pilot calibration.  The amplitudes need no
            pilot, so it is unused; perfbench's ``ber_mui`` set-up
            passes it.
    """
    cfg = network.victim.config
    return tuple(
        InterfererPath(
            amplitude=math.sqrt(10.0 ** (intf.rel_power_db / 10.0)),
            offset_samples=int(round(intf.timing_offset * cfg.fs)))
        for intf in network.interferers)


def draw_stimulus(spec: LinkSpec, ebn0_db: float, n: int,
                  rng: np.random.Generator
                  ) -> tuple[np.ndarray, np.ndarray]:
    """One seeded noisy burst of *n* symbols at the squarer input.

    The pipeline's Tx -> Channel -> Combine front (the ideal AWGN link,
    so :func:`calibrate` rejects a CM1 *spec*) draws the bits and
    the unit noise (in that order, from *rng*), scaled to the AWGN at
    *ebn0_db*; the band-pass and drive scaling of the calibrated
    *spec* follow.  This is the
    stimulus the Phase-I comparison grades on both the golden model and
    the kernel testbench.

    Returns:
        ``(bits, driven)``: the transmitted bits and the waveform to
        hand to :func:`~repro.link.ops.golden_packet` /
        :func:`~repro.link.ops.run_testbench`.
    """
    cfg = spec.config
    cache = calibrate(spec)
    sigma = noise_sigma_for_ebn0(cache.eb, float(ebn0_db), cfg.fs)
    state = SignalPipeline(stages=(
        TxStage(cfg),
        ChannelStage(),
        CombineStage(cfg),
    )).run_chunk(n, rng)
    scale = spec.frontend.squarer_drive / cache.peak
    noisy = state.waveform + sigma * state.unit
    return state.bits, scale * cache.bpf(noisy)[:n * cfg.samples_per_symbol]


def split_network(spec: LinkSpec | NetworkSpec
                  ) -> tuple[LinkSpec, NetworkSpec | None]:
    """``(victim, network)`` of a spec that may be multi-user
    (``network`` is ``None`` for a plain link)."""
    if isinstance(spec, NetworkSpec):
        return spec.victim, spec
    return spec, None
