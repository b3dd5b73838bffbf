"""Spice co-simulation block: a transistor netlist inside the AMS kernel.

This is the Python equivalent of the paper's Phase III mechanism - the
ADMS ``Eldo_subckt`` component: the system-level testbench stays
behavioral, but one block is backed by a transistor-level netlist solved
by the circuit engine, lock-stepped with the analog kernel step.

At every analog step the block:

1. evaluates its input functions (arbitrary closures over quantities /
   signals) and writes them into the netlist's independent sources,
2. advances the embedded :class:`~repro.spice.analysis.tran.TransientStepper`
   by one (or more) steps,
3. evaluates its output functions against the stepper and writes the
   results into the driven quantities.
"""

from __future__ import annotations

from typing import Callable, Mapping

from repro.ams.block import AnalogBlock
from repro.ams.quantity import Quantity
from repro.spice.analysis.tran import TransientStepper
from repro.spice.lint.engine import preflight_check
from repro.spice.netlist import Circuit


class SpiceBlock(AnalogBlock):
    """Embed a Spice-level circuit in the mixed-signal simulation.

    Args:
        name: block name.
        circuit: the netlist (complete with supplies and the independent
            sources the inputs drive).
        dt: analog kernel step; the embedded transient uses
            ``dt / substeps``.
        inputs: mapping ``source_name -> fn()`` giving each source's
            value at the current step.
        outputs: mapping ``Quantity -> fn(stepper)`` extracting outputs,
            e.g. ``lambda st: st.vdiff("out_intp", "out_intm")``.
        substeps: circuit-level steps per kernel step (>= 1).
        initial_guess: node-voltage hints for the initial DC solve.
        preflight: run the error-level static lint rules
            (:func:`repro.spice.lint.engine.preflight_check`) on the netlist
            before any MNA assembly, so a malformed circuit fails with
            a named rule and nodes instead of an opaque solver error
            deep inside the transient.  Pass ``False`` to opt out
            (e.g. to study a deliberately degenerate netlist that the
            ``gmin`` leakage can still solve).

    A Spice block deliberately does **not** implement the vectorized
    ``step_block`` protocol: its inputs are closures over live kernel
    state and each circuit step needs a Newton solve, so segments with a
    circuit in the loop always run lock-step (the compiled engine falls
    back automatically).
    """

    step_block = None  # circuit-in-the-loop segments stay lock-step

    def __init__(self, name: str, circuit: Circuit, dt: float, *,
                 inputs: Mapping[str, Callable[[], float]],
                 outputs: Mapping[Quantity, Callable[[TransientStepper],
                                                     float]],
                 substeps: int = 1,
                 initial_guess: Mapping[str, float] | None = None,
                 preflight: bool = True):
        if substeps < 1:
            raise ValueError("substeps must be >= 1")
        if preflight:
            # Fail fast, before the TransientStepper compiles the MNA
            # system: NetlistLintError names the rule and the nodes.
            preflight_check(circuit)
        super().__init__(name, inputs=(), outputs=tuple(outputs))
        self._input_fns = dict(inputs)
        self._output_fns = [(q, fn) for q, fn in outputs.items()]
        self.stepper = TransientStepper(
            circuit, dt / substeps,
            overrides={src: float(fn())
                       for src, fn in self._input_fns.items()},
            initial_guess=initial_guess)
        self.substeps = substeps
        self._write_outputs()

    def _write_outputs(self) -> None:
        for quantity, fn in self._output_fns:
            quantity.value = float(fn(self.stepper))

    def step(self, t: float, dt: float) -> None:
        stepper = self.stepper
        for src, fn in self._input_fns.items():
            stepper.set_source(src, float(fn()))
        for _ in range(self.substeps):
            stepper.step()
        self._write_outputs()

    def v(self, node: str) -> float:
        """Convenience probe into the embedded circuit."""
        return self.stepper.v(node)
