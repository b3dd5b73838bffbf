"""Newton bookkeeping and failure diagnostics of the transient engine."""

import functools

import numpy as np
import pytest

from repro.obs import metrics
from repro.spice.analysis.tran import TransientStepper
from repro.spice.devices.mosfet import Mosfet
from repro.spice.devices.passives import Capacitor
from repro.spice.devices.sources import Pulse, VoltageSource
from repro.spice.errors import ConvergenceError
from repro.spice.library import generic_018
from repro.spice.mna import MnaSystem
from repro.spice.netlist import Circuit

SUBSTEPS = metrics.REGISTRY.counter("spice.newton.substeps")


def inverter() -> Circuit:
    """CMOS inverter driving a load capacitor, input pulsed at 1 ns."""
    ckt = Circuit("inv", models=generic_018().values())
    ckt.add(VoltageSource("vdd", "vdd", "0", dc=1.8),
            VoltageSource("vin", "in", "0",
                          wave=Pulse(0.0, 1.8, td=1e-9, tr=50e-12,
                                     tf=50e-12, pw=1e-9)),
            Mosfet("mp", "out", "in", "vdd", "vdd", "pch",
                   w=4e-6, l=0.18e-6),
            Mosfet("mn", "out", "in", "0", "0", "nch",
                   w=2e-6, l=0.18e-6),
            Capacitor("cl", "out", "0", 20e-15))
    return ckt


def count_stamps(monkeypatch) -> list[int]:
    calls = [0]
    original = MnaSystem.stamp_nonlinear

    def counted(self, *args, **kwargs):
        calls[0] += 1
        return original(self, *args, **kwargs)

    monkeypatch.setattr(MnaSystem, "stamp_nonlinear", counted)
    return calls


class TestIterationCount:
    def test_counts_every_newton_iteration(self, monkeypatch):
        stepper = TransientStepper(inverter(), 20e-12)
        stamps = count_stamps(monkeypatch)
        stepper.run_until(2e-9)  # across both input edges
        assert stepper.steps_taken == 100
        assert stepper.newton_iterations == stamps[0]
        assert stamps[0] > stepper.steps_taken  # the edges need more

    def test_counts_accepted_sub_steps(self, monkeypatch):
        stepper = TransientStepper(inverter(), 20e-12)
        stamps = count_stamps(monkeypatch)
        newton = stepper.system.newton
        failed = []

        def fail_once(*args, **kwargs):
            if not failed:
                failed.append(kwargs["t"])
                raise ConvergenceError("forced", iterations=0)
            return newton(*args, **kwargs)

        monkeypatch.setattr(stepper.system, "newton", fail_once)
        before = SUBSTEPS.value
        stepper.step()
        assert SUBSTEPS.value - before == 1
        assert stepper.t == pytest.approx(20e-12)
        assert stepper.newton_iterations == stamps[0] >= 4


class TestCarriedEvaluation:
    def test_failed_call_never_feeds_the_next_step(self, monkeypatch):
        """The MOSFET evaluation handed to the capacitances and to the
        next step comes from the last accepted sub-step, even when the
        failed call before it evaluated iterates of its own."""
        stepper = TransientStepper(inverter(), 20e-12)
        stepper.run_until(1e-9)  # the next step crosses the input edge
        system = stepper.system
        evaluate = system.mos_group.evaluate
        newton = system.newton
        failing = [True]
        failed_evals, accepted, handed = [], [], []

        def logged_evaluate(v):
            ev = evaluate(v)
            if failing[0]:
                failed_evals.append(ev)
            return ev

        def fail_first(*args, **kwargs):
            handed.append(kwargs["mos_eval"])
            if failing[0]:
                before = system.last_mos_eval
                # A tiny damping keeps both iterations from converging.
                with pytest.raises(ConvergenceError) as info:
                    newton(*args, max_iter=2, damping=1e-12, **kwargs)
                failing[0] = False
                assert system.last_mos_eval is before
                raise info.value
            x = newton(*args, **kwargs)
            accepted.append(system.last_mos_eval)
            return x

        monkeypatch.setattr(system.mos_group, "evaluate", logged_evaluate)
        monkeypatch.setattr(system, "newton", fail_first)
        before = SUBSTEPS.value
        stepper.step()
        assert SUBSTEPS.value - before == 1
        # The failed call's second iteration evaluated its iterate.
        assert len(failed_evals) == 1
        assert len(accepted) == 4
        carried = stepper._mos_eval
        assert carried is accepted[-1]
        assert all(carried is not ev for ev in failed_evals)
        x_full = system.full_vector(stepper.x)
        np.testing.assert_array_equal(stepper.c_val,
                                      system.dynamic_caps(x_full, carried))
        stepper.step()
        assert handed[-1] is carried


class TestConvergenceDiagnostics:
    def test_newton_failure_names_time_node_and_residual(self):
        system = MnaSystem(inverter())
        with pytest.raises(ConvergenceError) as info:
            system.newton(None, t=1.5e-9, max_iter=1)
        err = info.value
        assert err.iterations == 1
        assert err.t == 1.5e-9
        assert err.node in system.nodes
        # From a zero start the first update is the first iterate.
        assert err.residual > 0.1
        message = str(err)
        assert "t=1.5e-09 s" in message
        assert repr(err.node) in message
        assert f"{err.residual:.3g} V" in message

    def test_dc_failure_says_dc(self):
        system = MnaSystem(inverter())
        with pytest.raises(ConvergenceError, match="at DC") as info:
            system.newton(None, max_iter=1)
        assert info.value.t is None

    def test_residual_is_the_largest_node_update(self):
        system = MnaSystem(inverter())
        with pytest.raises(ConvergenceError) as info:
            system.newton(None, t=1.5e-9, max_iter=1)
        # The one iteration from zero: assemble and solve it by hand.
        n = system.size
        aug = (system.linear_stamps(t=1.5e-9)
               + system.stamp_nonlinear(np.zeros(n + 1)))
        a_red, b = system.split(aug)
        update = np.abs(np.linalg.solve(a_red, b)[:system.n_nodes])
        assert info.value.residual == pytest.approx(update.max(),
                                                    rel=1e-9)
        assert info.value.node == system.nodes[int(np.argmax(update))]

    def test_transient_gives_up_with_time_and_sub_step(self, monkeypatch):
        stepper = TransientStepper(inverter(), 20e-12)
        stepper.run_until(1e-9)
        t_start = stepper.t
        system = stepper.system
        monkeypatch.setattr(system, "newton",
                            functools.partial(MnaSystem.newton, system,
                                              max_iter=1, damping=1e-6))
        before = SUBSTEPS.value
        with pytest.raises(ConvergenceError) as info:
            stepper.step()
        err = info.value
        # Split at depths 0, 1 and 2; the depth-3 failure is final.
        assert SUBSTEPS.value - before == 3
        message = str(err)
        assert f"from t={t_start:.6g} s" in message
        assert f"h={20e-12 / 64:.3g} s (dt/64)" in message
        assert err.node in system.nodes
        assert err.iterations == 1
        assert isinstance(err.__cause__, ConvergenceError)
