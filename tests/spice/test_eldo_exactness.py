"""Tolerance oracle of the Table-1 ELDO row's embedded transient.

A short span of the Table-1 stimulus (2 symbols, seed 1) runs through
the co-simulation row.  The integrator's differential output after every
transient step, the number of Newton calls and the number of Newton
iterations are compared against a golden file recorded before the
Newton step was fused (fewer numpy calls, one ``bincount`` stamp and a
LAPACK solve per iteration, which reorder the floating-point work).

The acceptance rule is not bit-identity:

* Newton calls equal exactly;
* total Newton iterations within 1% of the golden count;
* every out-node sample within ``VTOL`` of the golden sample, one tenth
  of the solver's own node-voltage tolerance ``vntol``.

A second test pins the span's work exactly: MOSFET evaluations, stamps
(one per Newton iteration) and Newton calls.

Re-record (only for a deliberate numerical change, noted in CHANGES.md)::

    PYTHONPATH=src python tests/spice/test_eldo_exactness.py --record
"""

from __future__ import annotations

import json
import pathlib
import sys

import numpy as np

GOLDEN = pathlib.Path(__file__).with_name("data") / "eldo_table1_seed1.json"
SEED = 1
N_SYMBOLS = 2
#: Out-node tolerance (V): a tenth of MnaSystem's default vntol.
VTOL = 1e-7
#: Relative tolerance on the total Newton iteration count.
ITER_RTOL = 0.01


def run_eldo_span() -> dict:
    """Run the ELDO row over the pinned span; return the out-node
    waveform and the Newton counts, gathered by wrapping the stepper
    and the MNA entry point from outside.

    ``iterations`` counts the initial DC solve's iterations plus the
    stepper's :attr:`~TransientStepper.newton_iterations`.
    """
    from repro.experiments.table1_cpu import make_table1_waveform
    from repro.link import ops
    from repro.link.spec import LinkSpec
    from repro.spice.analysis.tran import TransientStepper
    from repro.spice.mna import MnaSystem
    from repro.uwb.config import UwbConfig

    config = UwbConfig()
    waveform, _bits = make_table1_waveform(config, N_SYMBOLS, SEED)
    out: list[float] = []
    steppers: dict[TransientStepper, int] = {}
    calls = [0]
    newton = MnaSystem.newton
    step = TransientStepper.step

    def counted_newton(*args, **kwargs):
        calls[0] += 1
        return newton(*args, **kwargs)

    def recording_step(self):
        # Before its first step, the system's last Newton call is the
        # stepper's initial DC solve.
        steppers.setdefault(self, self.system.last_iterations)
        step(self)
        out.append(self.vdiff("out_intp", "out_intm"))

    MnaSystem.newton = counted_newton
    TransientStepper.step = recording_step
    try:
        ops.run_testbench(
            LinkSpec(config=config, integrator="circuit"), waveform,
            t_stop=N_SYMBOLS * config.symbol_period, engine="compiled")
    finally:
        TransientStepper.step = step
        MnaSystem.newton = newton
    iterations = sum(dc + stepper.newton_iterations
                     for stepper, dc in steppers.items())
    return {"seed": SEED, "n_symbols": N_SYMBOLS,
            "newton_calls": calls[0], "iterations": iterations, "out": out}


def test_eldo_span_matches_golden():
    golden = json.loads(GOLDEN.read_text())
    run = run_eldo_span()
    assert run["newton_calls"] == golden["newton_calls"] == 641
    assert abs(run["iterations"] - golden["iterations"]) <= (
        ITER_RTOL * golden["iterations"]), run["iterations"]
    assert len(run["out"]) == len(golden["out"])
    np.testing.assert_allclose(run["out"], golden["out"], rtol=0.0,
                               atol=VTOL)


def test_eldo_span_work_count(monkeypatch):
    """Deterministic work counts of the span: no timing noise.

    Every ``MosGroup.evaluate`` call is a stepper's initial one or a
    Newton iteration's that was not handed an evaluation.  A transient
    Newton call gets the previous call's final evaluation for its first
    iteration (and the capacitances use it too), so a re-added
    evaluation at each accepted point breaks the balance below.
    """
    from repro.spice.analysis.tran import TransientStepper
    from repro.spice.devices.mosfet import MosGroup
    from repro.spice.mna import MnaSystem

    counts = dict.fromkeys(
        ("evaluate", "stamp_nonlinear", "newton", "carried", "__init__"), 0)

    def count(cls, name):
        original = getattr(cls, name)

        def counted(*args, **kwargs):
            counts[name] += 1
            if name == "newton" and kwargs.get("mos_eval") is not None:
                counts["carried"] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(cls, name, counted)

    count(MosGroup, "evaluate")
    count(MnaSystem, "stamp_nonlinear")
    count(MnaSystem, "newton")
    count(TransientStepper, "__init__")
    run_eldo_span()
    steppers = counts["__init__"]
    assert steppers == 1
    # Only the initial DC solve goes without a carried evaluation.
    assert counts["newton"] == 641
    assert counts["carried"] == counts["newton"] - steppers
    assert counts["stamp_nonlinear"] == 1504
    assert counts["evaluate"] == (counts["stamp_nonlinear"]
                                  - counts["carried"] + steppers)
    assert counts["evaluate"] == 865


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(run_eldo_span(), indent=1) + "\n")
    print(f"wrote {GOLDEN}")
