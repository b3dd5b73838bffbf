"""Mixed-signal kernel: signals, processes, scheduling, blocks."""

import math

import numpy as np
import pytest

from repro.ams.block import AnalogBlock, CallbackBlock
from repro.ams.kernel import Simulator
from repro.ams.quantity import Quantity
from repro.ams.signal import Signal
from repro.ams.waveform import Recorder


class TestSignals:
    def test_assign_is_delta_delayed(self):
        sim = Simulator(dt=1e-9)
        s = sim.signal("s", init=0)
        s.assign(1)
        assert s.value == 0  # not yet applied
        sim.initialize()
        assert s.value == 1

    def test_assign_after_delay(self):
        sim = Simulator(dt=1e-9)
        s = sim.signal("s", init=0)
        s.assign(1, after=5e-9)
        sim.run(3e-9)
        assert s.value == 0
        sim.run(6e-9)
        assert s.value == 1

    def test_unbound_signal_rejects_assign(self):
        s = Signal("lonely")
        with pytest.raises(RuntimeError):
            s.assign(1)

    def test_signal_registry_returns_same(self):
        sim = Simulator(dt=1e-9)
        assert sim.signal("a") is sim.signal("a")


class TestProcesses:
    def test_every_period_validation(self):
        sim = Simulator(dt=1e-9)
        with pytest.raises(ValueError):
            sim.every(0.0, lambda s: None)

    def test_schedule_order(self):
        sim = Simulator(dt=1e-9)
        order = []
        sim.schedule(2e-9, lambda: order.append("b"))
        sim.schedule(1e-9, lambda: order.append("a"))
        sim.schedule(2e-9, lambda: order.append("c"))
        sim.run(3e-9)
        assert order == ["a", "b", "c"]

    def test_schedule_past_rejected(self):
        sim = Simulator(dt=1e-9)
        with pytest.raises(ValueError):
            sim.schedule(-1e-9, lambda: None)


class TestBlocks:
    def test_single_driver_enforced(self):
        sim = Simulator(dt=1e-9)
        q = sim.quantity("q")
        CallbackBlock("a", lambda: 1.0, inputs=[], outputs=[q])
        with pytest.raises(RuntimeError):
            CallbackBlock("b", lambda: 2.0, inputs=[], outputs=[q])

    def test_callback_chain(self):
        sim = Simulator(dt=1e-9)
        a = sim.quantity("a", init=2.0)
        b = sim.quantity("b")
        c = sim.quantity("c")
        sim.add_block(CallbackBlock("sq", lambda v: v * v,
                                    inputs=[a], outputs=[b]))
        sim.add_block(CallbackBlock("neg", lambda v: -v,
                                    inputs=[b], outputs=[c]))
        sim.run_steps(1)
        assert c.value == -4.0

    def test_multi_output_callback(self):
        sim = Simulator(dt=1e-9)
        a = sim.quantity("a", init=3.0)
        b = sim.quantity("b")
        c = sim.quantity("c")
        sim.add_block(CallbackBlock("split", lambda v: (v + 1, v - 1),
                                    inputs=[a], outputs=[b, c]))
        sim.run_steps(1)
        assert (b.value, c.value) == (4.0, 2.0)

    def test_steps_and_time(self):
        sim = Simulator(dt=1e-9)
        sim.run(10e-9)
        assert sim.steps == 10
        assert sim.t == pytest.approx(10e-9)

    def test_dt_validation(self):
        with pytest.raises(ValueError):
            Simulator(dt=0.0)

    def test_cpu_time_accumulates(self):
        sim = Simulator(dt=1e-9)
        sim.run(100e-9)
        assert sim.cpu_time > 0


class TestReset:
    """The reset contract: back-to-back runs are reproducible."""

    def _integrating_bench(self):
        sim = Simulator(dt=1e-9)
        src = sim.quantity("src", init=1.0)
        acc = sim.quantity("acc")

        class Accumulator(AnalogBlock):
            def __init__(self, name, vin, vout):
                super().__init__(name, inputs=[vin], outputs=[vout])
                self.total = 0.0

            def step(self, t, dt):
                self.total += self.inputs[0].value
                self.outputs[0].value = self.total

            def reset(self):
                self.total = 0.0

        sim.add_block(Accumulator("acc", src, acc))
        return sim, src, acc

    def test_reset_restores_quantities_and_signals(self):
        sim, src, acc = self._integrating_bench()
        gate = sim.signal("gate", init=0)
        sim.schedule(2e-9, lambda: gate.assign(1))
        sim.run_steps(5)
        assert acc.value == 5.0 and gate.value == 1
        sim.reset()
        assert sim.t == 0.0 and sim.steps == 0 and sim.cpu_time == 0.0
        assert acc.value == 0.0 and src.value == 1.0
        assert gate.value == 0

    def test_back_to_back_runs_identical(self):
        sim, src, acc = self._integrating_bench()
        counts = []
        sim.every(2e-9, lambda s: counts.append(s.t), start=2e-9)
        sim.run_steps(6)
        first = (acc.value, list(counts))
        sim.reset()
        counts.clear()
        sim.run_steps(6)
        assert (acc.value, list(counts)) == first

    def test_reset_rearms_build_time_schedule_and_assign(self):
        sim = Simulator(dt=1e-9)
        s = sim.signal("s", init=0)
        s.assign(3, after=2e-9)
        fired = []
        sim.schedule(4e-9, lambda: fired.append(sim.t))
        sim.run_steps(6)
        assert s.value == 3 and fired == [4e-9]
        sim.reset()
        assert s.value == 0
        sim.run_steps(6)
        assert s.value == 3 and fired == [4e-9, 4e-9]

    def test_runtime_events_not_rearmed(self):
        """Events scheduled after the run started are one-shot: reset
        replays only the testbench construction."""
        sim = Simulator(dt=1e-9)
        fired = []
        sim.initialize()  # ends the build phase
        sim.schedule(2e-9, lambda: fired.append("runtime"))
        sim.run_steps(4)
        assert fired == ["runtime"]
        sim.reset()
        sim.run_steps(4)
        assert fired == ["runtime"]

    def test_reset_clears_recorders(self):
        """A recorder discards old samples on reset, so a rerun
        records exactly what a fresh run would."""
        sim = Simulator(dt=1e-9)
        q = sim.quantity("q", init=1.0)
        sim.add_block(CallbackBlock("id", lambda v: v, inputs=[q],
                                    outputs=[sim.quantity("q2")]))
        rec = Recorder(sim, [q])
        sim.run_steps(6)
        first = list(rec.t)
        sim.reset()
        sim.run_steps(6)
        assert list(rec.t) == first == pytest.approx(
            [k * 1e-9 for k in range(1, 7)])

    def test_ams_receiver_rerun_reproducible(self):
        import numpy as np

        from repro.uwb.config import UwbConfig
        from repro.uwb.integrator import IdealIntegrator
        from repro.uwb.modulation import ppm_waveform
        from repro.uwb.system import build_ams_receiver

        config = UwbConfig(fs=8e9, symbol_period=16e-9,
                           pulse_tau=0.225e-9, pulse_order=5,
                           integration_window=2e-9)
        bits = np.array([1, 0, 1, 1], dtype=np.int8)
        sig = ppm_waveform(bits, config, amplitude=0.1)
        sim, harvest = build_ams_receiver(config, IdealIntegrator(), sig)
        t_stop = len(bits) * config.symbol_period
        sim.run(t_stop)
        first = harvest.result()
        sim.reset()  # also clears the harvest (on_reset wiring)
        sim.run(t_stop)
        second = harvest.result()
        assert len(second.bits) == len(bits)
        assert np.array_equal(first.bits, second.bits)
        assert np.array_equal(first.slot_values, second.slot_values)


class TestRecorderAndTrace:
    def test_recorder_samples_every_step(self):
        sim = Simulator(dt=1e-9)
        q = sim.quantity("q")
        sim.add_block(CallbackBlock("ramp", lambda: sim.t * 1e9,
                                    inputs=[], outputs=[q]))
        rec = Recorder(sim, [q])
        sim.run(5e-9)
        trace = rec.trace("q")
        assert len(trace) == 5
        # the block reads sim.t before the step commits, so the last
        # recorded value lags one step
        assert trace.values[-1] == pytest.approx(4.0)

    def test_trace_measurements(self):
        import numpy as np

        from repro.ams.waveform import Trace

        t = np.linspace(0.0, 1.0, 101)
        tr = Trace("sin", t, np.sin(2 * math.pi * t))
        assert tr.maximum() == pytest.approx(1.0, abs=1e-3)
        assert tr.rms() == pytest.approx(1 / math.sqrt(2), abs=0.01)

    def test_unknown_probe(self):
        sim = Simulator(dt=1e-9)
        q = sim.quantity("q")
        rec = Recorder(sim, [q])
        with pytest.raises(KeyError):
            rec.trace("nope")
