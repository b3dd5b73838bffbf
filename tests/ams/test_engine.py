"""Execution engines: event semantics, equivalence, fallback rules."""

import numpy as np
import pytest

from repro.ams.block import AnalogBlock, CallbackBlock
from repro.ams.engine import get_engine
from repro.ams.engine.compiled import CompiledEngine
from repro.ams.engine.reference import ReferenceEngine
from repro.ams.equations import GatedIntegratorState
from repro.ams.kernel import Simulator
from repro.ams.waveform import Recorder
from repro.link import ops
from repro.link.spec import LinkSpec
from repro.uwb.bpf import BandPassFilter
from repro.uwb.config import UwbConfig
from repro.uwb.modulation import ppm_waveform

FAST = UwbConfig(fs=8e9, symbol_period=16e-9, pulse_tau=0.225e-9,
                 pulse_order=5, integration_window=2e-9)
SPEC = LinkSpec(config=FAST)


def run_receiver(integrator, sig, *, engine, record=False):
    """The mixed-signal receiver through the front door (the engine
    under test is the only thing that varies)."""
    return ops.run_testbench(SPEC, sig, engine=engine, record=record,
                             integrator=integrator)


def fig5_like_signal(bits):
    """The fig5-style stimulus: filtered, normalized 2-PPM burst."""
    bits = np.asarray(bits, dtype=np.int8)
    wave = ppm_waveform(bits, FAST, amplitude=1.0)
    bpf = BandPassFilter.for_pulse(FAST.fs, FAST.pulse_tau,
                                   FAST.pulse_order)
    sig = bpf(wave)
    return bits, 0.25 * sig / np.max(np.abs(sig))


class TestEngineResolution:
    def test_get_engine_by_name(self):
        assert isinstance(get_engine("reference"), ReferenceEngine)
        assert isinstance(get_engine("compiled"), CompiledEngine)

    def test_get_engine_passthrough(self):
        inst = CompiledEngine()
        assert get_engine(inst) is inst
        assert Simulator(dt=1e-9, engine=inst).engine is inst

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            Simulator(dt=1e-9, engine="quantum")
        with pytest.raises(ValueError):
            get_engine(ReferenceEngine)


class TestEventSemantics:
    """Kernel event contracts shared by both engines."""

    @pytest.mark.parametrize("engine", ["reference", "compiled"])
    def test_schedule_ordering_ties_fifo(self, engine):
        sim = Simulator(dt=1e-9, engine=engine)
        order = []
        sim.schedule(2e-9, lambda: order.append("first"))
        sim.schedule(2e-9, lambda: order.append("second"))
        sim.schedule(2e-9, lambda: order.append("third"))
        sim.run(3e-9)
        assert order == ["first", "second", "third"]

    @pytest.mark.parametrize("engine", ["reference", "compiled"])
    def test_every_vs_schedule_tie_follows_registration(self, engine):
        sim = Simulator(dt=1e-9, engine=engine)
        order = []
        sim.every(4e-9, lambda s: order.append("every"), start=4e-9)
        sim.schedule(4e-9, lambda: order.append("scheduled"))
        sim.run(5e-9)
        assert order == ["every", "scheduled"]

    @pytest.mark.parametrize("engine", ["reference", "compiled"])
    def test_event_exactly_on_step_boundary(self, engine):
        """An event at exactly k*dt executes with step k (observing the
        kernel contract: the step counter increments only after the
        landing step's events ran, so the event reads k-1)."""
        sim = Simulator(dt=1e-9, engine=engine)
        seen = []
        sim.schedule(5e-9, lambda: seen.append((sim.t, sim.steps)))
        sim.run_steps(10)
        assert seen == [(5e-9, 4)]

    @pytest.mark.parametrize("engine", ["reference", "compiled"])
    def test_event_between_steps_fires_next_boundary(self, engine):
        """An off-grid event executes while the step that crosses it
        commits, observing its own timestamp as sim.t."""
        sim = Simulator(dt=1e-9, engine=engine)
        seen = []
        sim.schedule(4.5e-9, lambda: seen.append((sim.t, sim.steps)))
        sim.run_steps(10)
        assert seen == [(4.5e-9, 4)]

    @pytest.mark.parametrize("engine", ["reference", "compiled"])
    def test_run_steps_counts_exactly(self, engine):
        sim = Simulator(dt=1e-9, engine=engine)
        sim.run_steps(7)
        assert sim.steps == 7
        sim.run_steps(5)
        assert sim.steps == 12
        assert sim.t == pytest.approx(12e-9)

    @pytest.mark.parametrize("engine", ["reference", "compiled"])
    def test_event_sees_committed_quantities(self, engine):
        """An event reads the quantity values of the step it lands on."""
        sim = Simulator(dt=1e-9, engine=engine)
        src = sim.quantity("src", init=3.0)
        out = sim.quantity("out")
        sim.add_block(CallbackBlock("sq", lambda v: v * v,
                                    inputs=[src], outputs=[out],
                                    vectorized=True))
        seen = []
        sim.schedule(4e-9, lambda: seen.append(float(out.value)))
        sim.run_steps(6)
        assert seen == [9.0]

    @pytest.mark.parametrize("engine", ["reference", "compiled"])
    def test_delta_cascade_runs_at_boundary(self, engine):
        sim = Simulator(dt=1e-9, engine=engine)
        s = sim.signal("s", init=0)
        hits, samples = [], []

        def assign_then_read():
            s.assign(1)  # delta cycle at 3 ns
            sim.schedule(0.0, lambda: hits.append((sim.t, s.value)))

        sim.schedule(3e-9, assign_then_read)
        # samples at 0.5, 1.5, ..., 5.5 ns
        sim.every(1e-9, lambda _: samples.append(s.value), start=0.5e-9)
        sim.run_steps(6)
        assert hits == [(3e-9, 1)]
        assert samples == [0, 0, 0, 1, 1, 1]


class TestEngineEquivalence:
    """CompiledEngine must reproduce the ReferenceEngine oracle."""

    def test_fig5_testbench_ideal_bit_exact(self):
        bits, sig = fig5_like_signal([1, 0, 0, 1, 1, 0])
        ref = run_receiver("ideal", sig, engine="reference",
                           record=True)
        com = run_receiver("ideal", sig, engine="compiled",
                           record=True)
        assert np.array_equal(ref.bits, com.bits)
        assert np.array_equal(ref.bits, bits)
        assert np.array_equal(ref.slot_values, com.slot_values)
        assert ref.steps == com.steps
        tr_ref = ref.recorder.trace("int_out")
        tr_com = com.recorder.trace("int_out")
        assert np.array_equal(tr_ref.t, tr_com.t)
        assert np.array_equal(tr_ref.values, tr_com.values)

    def test_fig5_testbench_two_pole_equivalent(self):
        bits, sig = fig5_like_signal([0, 1, 1, 0, 1])
        ref = run_receiver("two_pole", sig, engine="reference")
        com = run_receiver("two_pole", sig, engine="compiled")
        assert np.array_equal(ref.bits, com.bits)
        np.testing.assert_allclose(com.slot_values, ref.slot_values,
                                   rtol=1e-9, atol=1e-15)

    def test_surrogate_equivalent(self):
        bits, sig = fig5_like_signal([1, 1, 0, 0])
        ref = run_receiver("surrogate", sig, engine="reference")
        com = run_receiver("surrogate", sig, engine="compiled")
        assert np.array_equal(ref.bits, com.bits)
        np.testing.assert_allclose(com.slot_values, ref.slot_values,
                                   rtol=1e-9, atol=1e-15)

    def test_chunked_grid_bit_exact(self):
        """The time grid is built in bounded chunks on long runs; a
        pathological chunk size must not change a single bit."""
        bits, sig = fig5_like_signal([1, 0, 1, 1, 0, 0])
        ref = run_receiver("ideal", sig, engine="reference")
        tiny = CompiledEngine()
        tiny.GRID_CHUNK = 17  # far below any real segment size
        com = run_receiver("ideal", sig, engine=tiny)
        assert np.array_equal(ref.bits, com.bits)
        assert np.array_equal(ref.slot_values, com.slot_values)
        assert ref.steps == com.steps

    def test_gated_state_block_matches_scalar(self):
        scalar = GatedIntegratorState(2.0e9)
        block = GatedIntegratorState(2.0e9)
        rng = np.random.default_rng(5)
        x = rng.normal(size=64)
        expected = [scalar.integrate(float(v), 1e-10) for v in x]
        got = block.integrate_block(x, 1e-10)
        assert np.array_equal(got, np.asarray(expected))

    def test_long_preamble_run_equivalent(self):
        """Table-1 style span: engines agree symbol after symbol (the
        wall-clock speedup itself is asserted in the benchmark tier,
        where loaded-box headroom is accounted for)."""
        _bits, sig = fig5_like_signal(np.zeros(40, dtype=np.int8))
        ref = run_receiver("ideal", sig, engine="reference")
        com = run_receiver("ideal", sig, engine="compiled")
        assert np.array_equal(ref.bits, com.bits)
        assert np.array_equal(ref.slot_values, com.slot_values)

    def test_scalar_nonlinearity_keeps_lock_step(self):
        """A scalar-only input nonlinearity (no `vectorized` marker)
        must not be fed segment arrays: the integrator block opts out
        and the model still works under the default compiled engine."""
        import math

        from repro.uwb.integrator import TwoPoleIntegrator

        bits, sig = fig5_like_signal([1, 0, 1])
        model = TwoPoleIntegrator(
            input_nonlinearity=lambda v: math.tanh(v))  # scalar-only
        ref = run_receiver(model, sig, engine="reference")
        model2 = TwoPoleIntegrator(
            input_nonlinearity=lambda v: math.tanh(v))
        com = run_receiver(model2, sig, engine="compiled")
        assert np.array_equal(ref.bits, com.bits)
        np.testing.assert_allclose(com.slot_values, ref.slot_values,
                                   rtol=1e-12, atol=0)

    def test_vectorized_nonlinearity_stays_compiled(self):
        from repro.uwb.integrator import CircuitSurrogateIntegrator
        from repro.uwb.system import build_ams_receiver

        _bits, sig = fig5_like_signal([1, 0])
        sim, _harvest = build_ams_receiver(
            FAST, CircuitSurrogateIntegrator(), sig)
        assert sim.engine.explain(sim) is None


class TestCompiledFallback:
    def _chain(self, sim):
        a = sim.quantity("a", init=2.0)
        b = sim.quantity("b")
        sim.add_block(CallbackBlock("sq", lambda v: v * v,
                                    inputs=[a], outputs=[b],
                                    vectorized=True))
        return a, b

    def test_non_vectorized_callback_falls_back(self):
        sim = Simulator(dt=1e-9, engine="compiled")
        a = sim.quantity("a", init=2.0)
        b = sim.quantity("b")
        sim.add_block(CallbackBlock("sq", lambda v: v * v,
                                    inputs=[a], outputs=[b],
                                    vectorized=False))
        sim.run_steps(3)
        assert b.value == 4.0
        assert "step_block" in sim.engine.fallback_reason

    def test_zero_input_callback_falls_back(self):
        sim = Simulator(dt=1e-9, engine="compiled")
        q = sim.quantity("q")
        sim.add_block(CallbackBlock("ramp", lambda: sim.t * 1e9,
                                    inputs=[], outputs=[q]))
        rec = Recorder(sim, [q])
        sim.run(5e-9)
        assert sim.engine.fallback_reason is not None
        # lock-step semantics preserved: the ramp closure ran per step
        assert rec.trace("q").values[-1] == pytest.approx(4.0)

    def test_feedback_topology_falls_back(self):
        sim = Simulator(dt=1e-9, engine="compiled")
        fwd = sim.quantity("fwd")
        fb = sim.quantity("fb")
        # reads a quantity driven by a *later* block: one-step-delay
        # feedback, only valid lock-step
        sim.add_block(CallbackBlock("in", lambda v: v + 1.0,
                                    inputs=[fb], outputs=[fwd],
                                    vectorized=True))
        sim.add_block(CallbackBlock("loop", lambda v: 0.5 * v,
                                    inputs=[fwd], outputs=[fb],
                                    vectorized=True))
        sim.run_steps(4)
        assert "feedback" in sim.engine.fallback_reason
        ref = Simulator(dt=1e-9, engine="reference")
        rfwd = ref.quantity("fwd")
        rfb = ref.quantity("fb")
        ref.add_block(CallbackBlock("in", lambda v: v + 1.0,
                                    inputs=[rfb], outputs=[rfwd]))
        ref.add_block(CallbackBlock("loop", lambda v: 0.5 * v,
                                    inputs=[rfwd], outputs=[rfb]))
        ref.run_steps(4)
        assert fwd.value == rfwd.value
        assert fb.value == rfb.value

    def test_self_feedback_falls_back(self):
        """A block reading its own output is a one-step-delay self-loop
        and must run lock-step, not compile to a constant segment."""
        def build(engine):
            sim = Simulator(dt=1e-9, engine=engine)
            q = sim.quantity("q", init=1.0)
            sim.add_block(CallbackBlock("decay", lambda v: 0.9 * v,
                                        inputs=[q], outputs=[q],
                                        vectorized=True))
            return sim, q

        sim_c, q_c = build("compiled")
        sim_r, q_r = build("reference")
        sim_c.run_steps(5)
        sim_r.run_steps(5)
        assert "feedback" in sim_c.engine.fallback_reason
        assert q_c.value == q_r.value == pytest.approx(0.9 ** 5)

    def test_opaque_step_hook_falls_back(self):
        sim = Simulator(dt=1e-9, engine="compiled")
        self._chain(sim)
        hits = []
        sim.add_step_hook(lambda t: hits.append(t))
        sim.run_steps(3)
        assert "hook" in sim.engine.fallback_reason
        assert len(hits) == 3

    def test_recorder_hook_does_not_fall_back(self):
        sim = Simulator(dt=1e-9, engine="compiled")
        a, b = self._chain(sim)
        rec = Recorder(sim, [a, b])
        sim.run_steps(3)
        assert sim.engine.fallback_reason is None
        assert np.array_equal(rec.trace("b").values, [4.0, 4.0, 4.0])

    def test_compilable_chain_reports_no_reason(self):
        sim = Simulator(dt=1e-9, engine="compiled")
        self._chain(sim)
        assert sim.engine.explain(sim) is None


class TestCompiledRecorder:
    def test_passthrough_alias_keeps_pre_event_output(self):
        """A pass-through block may return its input array unchanged;
        a boundary event rewriting the undriven input must not leak
        into the recorded output at that step (the block stepped before
        the event, as in the reference loop)."""
        def build(engine):
            sim = Simulator(dt=1e-9, engine=engine)
            src = sim.quantity("src", init=1.0)
            out = sim.quantity("out")
            sim.add_block(CallbackBlock("id", lambda v: v,
                                        inputs=[src], outputs=[out],
                                        vectorized=True))
            sim.schedule(5e-9, lambda: setattr(src, "value", 42.0))
            rec = Recorder(sim, [src, out])
            return sim, rec

        sim_r, rec_r = build("reference")
        sim_c, rec_c = build("compiled")
        sim_r.run_steps(10)
        sim_c.run_steps(10)
        assert sim_c.engine.fallback_reason is None
        for probe in ("src", "out"):
            assert np.array_equal(rec_r.trace(probe).values,
                                  rec_c.trace(probe).values), probe

    def test_boundary_event_writing_driven_quantity(self):
        """An event overwriting a block-driven quantity is visible to
        recorders at exactly the landing step, then the driver
        recomputes - identical under both engines."""
        def build(engine):
            sim = Simulator(dt=1e-9, engine=engine)
            src = sim.quantity("src", init=1.0)
            out = sim.quantity("out")
            sim.add_block(CallbackBlock("x2", lambda v: 2.0 * v,
                                        inputs=[src], outputs=[out],
                                        vectorized=True))
            sim.schedule(5e-9, lambda: setattr(out, "value", 42.0))
            rec = Recorder(sim, [out])
            return sim, rec

        sim_r, rec_r = build("reference")
        sim_c, rec_c = build("compiled")
        sim_r.run_steps(10)
        sim_c.run_steps(10)
        assert sim_c.engine.fallback_reason is None
        expected = [2.0] * 4 + [42.0] + [2.0] * 5
        assert rec_r.trace("out").values.tolist() == expected
        assert np.array_equal(rec_r.trace("out").values,
                              rec_c.trace("out").values)

    def test_signal_probe_sees_boundary_event(self):
        """A recorded signal changed by an event at a segment boundary
        shows the new value at exactly that step under both engines."""
        def build(engine):
            sim = Simulator(dt=1e-9, engine=engine)
            src = sim.quantity("src", init=1.0)
            out = sim.quantity("out")
            sim.add_block(CallbackBlock("id", lambda v: v,
                                        inputs=[src], outputs=[out],
                                        vectorized=True))
            mode = sim.signal("mode", init=0)
            sim.schedule(5e-9, lambda: mode.force(7))
            rec = Recorder(sim, [mode])
            return sim, rec

        sim_r, rec_r = build("reference")
        sim_c, rec_c = build("compiled")
        sim_r.run_steps(10)
        sim_c.run_steps(10)
        assert sim_c.engine.fallback_reason is None
        assert np.array_equal(rec_r.trace("mode").values,
                              rec_c.trace("mode").values)
