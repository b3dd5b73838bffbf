"""The link operations and the spec -> component builders behind them:
golden-model BER, packet decisions, ranging, builder fidelity."""

from dataclasses import replace

import numpy as np
import pytest

from repro.link import ops
from repro.link.backends import (
    _LinkCache,
    build_bpf,
    build_integrator,
    build_receiver,
    calibrate,
    draw_stimulus,
)
from repro.link.pipeline import DecisionStage, run_ber_point
from repro.link.spec import (
    ADC_MODES,
    ChannelSpec,
    FrontEndSpec,
    LinkSpec,
    NetworkSpec,
)
from repro.uwb.agc import Agc, TwoStageAgc
from repro.uwb.channel.awgn import noise_sigma_for_ebn0
from repro.uwb.config import UwbConfig
from repro.uwb.integrator import (
    IdealIntegrator,
    TwoPoleIntegrator,
    WindowIntegrator,
)
from repro.uwb.modulation import ppm_waveform

FAST = UwbConfig(fs=8e9, symbol_period=16e-9, pulse_tau=0.225e-9,
                 pulse_order=5, integration_window=2e-9)
SPEC = LinkSpec(config=FAST)


def ber_point(spec, ebn0_db, rng, **budget):
    """``(errors, bits)`` of a one-point :func:`ops.ber_curve`."""
    curve = ops.ber_curve(spec, [ebn0_db], rng, **budget)
    return int(curve.errors[0]), int(curve.bits[0])


class TestBuilders:
    def test_bpf_from_band_and_pulse(self):
        explicit = build_bpf(SPEC.with_frontend(band=(1e9, 3e9)))
        assert explicit.band == (1e9, 3e9)
        derived = build_bpf(SPEC)
        assert 0 < derived.band[0] < derived.band[1] < FAST.fs / 2

    def test_calibrate_positive_energy(self):
        cache = calibrate(SPEC)
        assert cache.eb > 0 and cache.peak > 0

    def test_receiver_wiring_from_spec(self):
        spec = SPEC.with_frontend(agc="two_stage", agc_amp_target=0.06,
                                  detection_factor=8.0,
                                  toa_threshold_fraction=0.5)
        rx = build_receiver(spec)
        assert isinstance(rx.agc, TwoStageAgc)
        assert rx.agc.amp_target == 0.06
        assert rx.detection_factor == 8.0
        assert rx.toa_threshold_fraction == 0.5
        assert isinstance(rx.integrator, IdealIntegrator)
        single = build_receiver(SPEC)
        assert type(single.agc) is Agc

    def test_receiver_integrator_override(self):
        model = TwoPoleIntegrator()
        rx = build_receiver(SPEC, integrator=model)
        assert rx.integrator is model

    def test_integrator_resolution(self):
        """One resolution rule for every op: spec selection with its
        params, name or instance overrides, and "circuit" as the
        behavioral surrogate unless the caller hosts co-simulation."""
        spec = replace(SPEC, integrator="two_pole",
                       integrator_params={"fp2_hz": 2.5e9})
        assert build_integrator(spec).fp2_hz == 2.5e9
        model = TwoPoleIntegrator()
        assert build_integrator(spec, model) is model
        circuit = replace(SPEC, integrator="circuit")
        assert build_integrator(circuit).name == "circuit"
        assert not isinstance(build_integrator(circuit), str)
        assert build_integrator(circuit, cosim=True) == "circuit"

    def test_receiver_rejects_gainless_integrator(self):
        class Opaque(WindowIntegrator):
            def window_outputs(self, x, dt):
                return np.sum(x, axis=-1) * dt

            def make_state(self):  # pragma: no cover - unused
                raise NotImplementedError

        with pytest.raises(ValueError, match="ideal_k"):
            build_receiver(SPEC, integrator=Opaque())


class TestFastsimBackend:
    """The golden-model operations: BER, packet decisions, ranging."""

    def test_ber_point_matches_legacy_entry_point(self, link_front):
        """The spec-level op and the config-level pipeline entry are
        the same computation: identical seed, identical counters."""
        budget = dict(target_errors=20, max_bits=3000, min_bits=500)
        spec = SPEC.with_frontend(band=(1.0e9, 3.5e9))
        via_op = ber_point(spec, 8.0, np.random.default_rng(5), **budget)
        cache = _LinkCache(FAST, build_bpf(spec))
        direct = run_ber_point(
            link_front(FAST, cache.bpf, scale=0.05 / cache.peak),
            DecisionStage(FAST, IdealIntegrator()),
            noise_sigma_for_ebn0(cache.eb, 8.0, FAST.fs),
            np.random.default_rng(5), **budget)
        assert via_op == direct

    def test_ber_curve_decreases_with_snr(self):
        curve = ops.ber_curve(
            SPEC, [2.0, 8.0, 14.0], np.random.default_rng(3),
            target_errors=40, max_bits=8000, min_bits=800)
        assert curve.ber[0] > curve.ber[1] > curve.ber[2]
        assert curve.label == "ideal"

    def test_ber_curve_labels_surrogate_by_model_name(self):
        """``ber_curve`` labels by the resolved model (the surrogate is
        the "circuit" model); ``sweep`` labels by the requested name."""
        budget = dict(target_errors=5, max_bits=200, min_bits=100)
        curve = ops.ber_curve(
            SPEC, [8.0], np.random.default_rng(1),
            integrator="surrogate", **budget)
        assert curve.label == "circuit"
        sweep = ops.ber_sweep(
            SPEC, [8.0], np.random.default_rng(1),
            integrators=("surrogate",), **budget)
        assert list(sweep) == ["surrogate"]

    def test_integrator_params_reach_model(self):
        spec = replace(SPEC, integrator="two_pole",
                       integrator_params={"fp2_hz": 2.5e9})
        curve = ops.ber_curve(
            spec, [8.0], np.random.default_rng(3),
            target_errors=10, max_bits=1000, min_bits=400)
        assert curve.label == "two_pole"

    def test_circuit_resolves_to_surrogate(self):
        spec = replace(SPEC, integrator="circuit")
        e, b = ber_point(spec, 10.0, np.random.default_rng(4),
                         target_errors=10, max_bits=1000, min_bits=400)
        assert b >= 400

    def test_packet_demodulates_clean_burst(self):
        bits = np.array([1, 0, 0, 1, 1, 0], dtype=np.int8)
        sig = _conditioned(bits)
        res = ops.golden_packet(SPEC, sig)
        assert np.array_equal(res.bits, bits)
        assert res.slot_values.shape == (len(bits), 2)

    def test_ranging_smoke(self):
        spec = LinkSpec(
            config=UwbConfig(preamble_symbols=16, payload_bits=16,
                             adc_vref=2e-3, agc_range_db=80.0),
            channel=ChannelSpec(kind="cm1", distance=3.0),
            frontend=FrontEndSpec(detection_factor=8.0,
                                  toa_threshold_fraction=0.5),
            integrator="ideal")
        res = ops.ranging(spec, 2, np.random.default_rng(1),
                          noise_sigma=9e-5)
        assert len(res.distances) == 2
        assert 1.0 < res.mean < 6.0


class TestKernelBackend:
    """The AMS-kernel testbench op against the golden model."""

    def test_packet_matches_fastsim_on_clean_burst(self):
        bits = np.array([1, 0, 1, 1, 0], dtype=np.int8)
        sig = _conditioned(bits)
        kernel = ops.run_testbench(SPEC, sig)
        golden = ops.golden_packet(SPEC, sig)
        assert np.array_equal(kernel.bits, bits)
        assert np.array_equal(golden.bits, bits)

    def test_packet_engines_bit_identical(self):
        bits = np.array([0, 1, 1, 0], dtype=np.int8)
        sig = _conditioned(bits)
        ref = ops.run_testbench(SPEC, sig, engine="reference")
        com = ops.run_testbench(SPEC, sig, engine="compiled")
        assert np.array_equal(ref.bits, com.bits)
        assert np.array_equal(ref.slot_values, com.slot_values)

    @pytest.mark.parametrize("adc", ADC_MODES)
    def test_adc_mode_means_the_same_on_both_backends(self, adc):
        """Every adc mode puts the same converter in front of the
        decision on both packet paths; "none" decides on raw slots."""
        spec = SPEC.with_frontend(adc=adc)
        bits = np.array([1, 0, 1, 0], dtype=np.int8)
        sig = _conditioned(bits)
        kernel = ops.run_testbench(spec, sig)
        golden = ops.golden_packet(spec, sig)
        assert np.array_equal(kernel.bits, golden.bits)
        if adc == "none":
            assert np.array_equal(kernel.bits, bits)
            # Unquantized: kernel decisions equal a raw comparison of
            # its own slot values (no ADC reconstruction in between).
            raw = (kernel.slot_values[:, 1]
                   > kernel.slot_values[:, 0]).astype(np.int8)
            assert np.array_equal(kernel.bits, raw)

    def test_testbench_builder_takes_models_not_names(self):
        """Names resolve in ops.run_testbench; the uwb-level builder
        takes a model instance or the co-simulation marker only."""
        from repro.uwb.system import build_ams_receiver

        with pytest.raises(ValueError, match="WindowIntegrator"):
            build_ams_receiver(FAST, "ideal", np.zeros(32))
        sim, _ = build_ams_receiver(FAST, IdealIntegrator(), np.zeros(32))
        assert sim is not None

    def test_circuit_with_params_fails_with_intent(self):
        spec = replace(SPEC, integrator="circuit",
                       integrator_params={"fp2_hz": 3e9})
        with pytest.raises(ValueError, match="no integrator_params"):
            ops.run_testbench(
                spec, _conditioned(np.array([1, 0], dtype=np.int8)))
        # the behavioral stand-in accepts the same spec
        e, b = ber_point(spec, 10.0, np.random.default_rng(4),
                         target_errors=5, max_bits=500, min_bits=200)
        assert b >= 200

    @pytest.mark.parametrize("spec, ebn0, expected", [
        pytest.param(SPEC, 6.0, (9, 90), id="awgn"),
    ])
    def test_ber_point_pinned_counters(self, spec, ebn0, expected):
        """Kernel decisions on three consecutive 30-symbol Phase-I
        stimuli from one generator; counters recorded when a kernel
        BER loop still graded exactly these bursts."""
        rng = np.random.default_rng(7)
        errors = bits_done = 0
        for _ in range(3):
            tx, driven = draw_stimulus(spec, ebn0, 30, rng)
            decided = ops.run_testbench(spec, driven).bits
            errors += int(np.count_nonzero(decided != tx))
            bits_done += len(tx)
        assert (errors, bits_done) == expected

    @pytest.mark.parametrize("bad, message", [
        (dict(max_bits=0), "max_bits must be >= 1"),
        (dict(chunk_bits=0), "chunk_bits must be >= 1"),
        (dict(target_errors=0), "target_errors must be >= 1"),
        (dict(min_bits=-1), "min_bits must be >= 0"),
    ], ids=["max_bits", "chunk_bits", "target_errors", "min_bits"])
    @pytest.mark.parametrize("backend", ["fastsim"])
    def test_ber_point_rejects_bad_budget(self, backend, bad, message):
        """The BER chunk loop checks the budget up front."""
        budget = dict(target_errors=5, max_bits=60, min_bits=30,
                      chunk_bits=30)
        budget.update(bad)
        with pytest.raises(ValueError, match=message):
            ber_point(SPEC, 8.0, np.random.default_rng(7), **budget)

    def test_ranging_uses_behavioral_model(self):
        # "circuit" in the packet-level receiver means the surrogate.
        spec = LinkSpec(
            config=UwbConfig(preamble_symbols=16, payload_bits=16,
                             adc_vref=2e-3, agc_range_db=80.0),
            channel=ChannelSpec(kind="cm1", distance=3.0),
            frontend=FrontEndSpec(detection_factor=8.0,
                                  toa_threshold_fraction=0.5),
            integrator="circuit")
        res = ops.ranging(spec, 1, np.random.default_rng(2),
                          noise_sigma=9e-5)
        assert len(res.distances) == 1


class TestOps:
    def test_ops_are_campaign_safe(self):
        """spec-driven op params pickle and content-address."""
        import pickle

        from repro.campaign.store import ResultStore
        from repro.core.scenario import Scenario

        scenario = Scenario(
            name="x", fn=ops.ber_curve, seed=3, rng_param="rng",
            params=dict(spec=SPEC, ebn0_grid=[8.0], target_errors=5,
                        max_bits=500, min_bits=200))
        pickle.loads(pickle.dumps(scenario))
        key = ResultStore("/tmp/unused-root").scenario_key(scenario)
        assert key is not None and len(key) == 64

    def test_ops_ber_curve_and_testbench(self):
        curve = ops.ber_curve(SPEC, [10.0], np.random.default_rng(2),
                              target_errors=10, max_bits=1000,
                              min_bits=400)
        assert curve.bits[0] >= 400
        bits = np.array([1, 0], dtype=np.int8)
        res = ops.run_testbench(SPEC, _conditioned(bits))
        assert np.array_equal(res.bits, bits)
        assert res.cpu_time > 0

    @pytest.mark.parametrize("op", [ops.ber_curve, ops.mui_ber_curve,
                                    ops.ranging])
    @pytest.mark.parametrize("knob", ["backend", "engine"])
    def test_no_backend_or_engine_knob(self, op, knob):
        """Only run_testbench selects an engine; no op selects a
        backend."""
        spec = NetworkSpec(victim=SPEC) if op is ops.mui_ber_curve \
            else SPEC
        with pytest.raises(TypeError, match=knob):
            op(spec, [8.0], np.random.default_rng(1), **{knob: "kernel"})


CM1 = replace(SPEC, channel=ChannelSpec(kind="cm1", distance=3.0))

#: every golden-model BER entry point, called on *spec*.
BER_ENTRY_POINTS = {
    "ber_sweep": lambda spec: ops.ber_sweep(
        spec, [8.0], np.random.default_rng(1), integrators=("ideal",)),
    "ber_curve": lambda spec: ops.ber_curve(
        spec, [8.0], np.random.default_rng(1)),
    "mui_ber_curve": lambda spec: ops.mui_ber_curve(
        NetworkSpec(victim=spec), [8.0], np.random.default_rng(1)),
    "draw_stimulus": lambda spec: draw_stimulus(
        spec, 8.0, 30, np.random.default_rng(1)),
}


class TestBerLinkIsTheIdealAwgnLink:
    """The golden-model BER link has no channel and no converter: a
    CM1 link runs through the packet receiver of ``ops.ranging``."""

    @pytest.mark.parametrize("call", BER_ENTRY_POINTS.values(),
                             ids=BER_ENTRY_POINTS)
    def test_a_cm1_spec_is_rejected_naming_ranging(self, call):
        with pytest.raises(ValueError, match=r"ops\.ranging"):
            call(CM1)

    @pytest.mark.parametrize("op", ["ber_sweep", "ber_curve",
                                    "mui_ber_curve"])
    def test_the_config_converter_is_rejected(self, op):
        with pytest.raises(ValueError, match="adc='config'"):
            BER_ENTRY_POINTS[op](SPEC.with_frontend(adc="config"))

    def test_auto_and_none_grade_alike(self):
        """Neither policy quantizes the sweep, so the counts agree."""
        budget = dict(target_errors=10, max_bits=1000, min_bits=400)
        counts = {adc: ber_point(SPEC.with_frontend(adc=adc), 6.0,
                                 np.random.default_rng(3), **budget)
                  for adc in ("auto", "none")}
        assert counts["auto"] == counts["none"]


def _conditioned(bits: np.ndarray) -> np.ndarray:
    """A clean filtered burst at a fixed drive (the packet-op input
    contract: post-BPF, pre-squarer)."""
    wave = ppm_waveform(np.asarray(bits, dtype=np.int8), FAST,
                        amplitude=1.0)
    sig = build_bpf(SPEC)(wave)
    return 0.25 * sig / np.max(np.abs(sig))


class TestKernelPreflight:
    """The static lint gate in front of the co-simulated netlist."""

    def _sabotaged_testbench(self, *args, **kwargs):
        from repro.circuits.integrate_dump import build_id_testbench

        tb = build_id_testbench(*args, **kwargs)
        from repro.spice.devices.passives import Resistor

        tb.add(Resistor("rmut", "out_intp", "mut_dangling", 1e3))
        return tb

    def test_packet_refuses_broken_netlist(self, monkeypatch):
        import repro.uwb.system as system
        from repro.spice.errors import NetlistLintError

        monkeypatch.setattr(system, "build_id_testbench",
                            self._sabotaged_testbench)
        sig = _conditioned(np.array([1, 0], dtype=np.int8))
        spec = replace(SPEC, integrator="circuit")
        with pytest.raises(NetlistLintError, match="SP-FLOAT-001") as exc:
            ops.run_testbench(spec, sig, cosim_substeps=1)
        assert "mut_dangling" in str(exc.value)
