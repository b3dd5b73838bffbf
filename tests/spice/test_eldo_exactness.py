"""Exactness pin of the Table-1 ELDO row's embedded transient.

A short span of the Table-1 stimulus (2 symbols, seed 1) runs through
the co-simulation row.  The integrator's differential output after every
transient step, the number of Newton calls and the number of Newton
iterations are compared against a golden file recorded from the code
before the Newton hot path was reworked.  Any change that reorders the
floating-point work of a Newton step shows up here.

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


def run_eldo_span() -> dict:
    """Run the ELDO row over the pinned span; return the out-node
    waveform and the Newton counts, gathered by wrapping the stepper
    and the MNA entry points from outside."""
    from repro.experiments.table1_cpu import make_table1_waveform
    from repro.link import LinkSpec, ops
    from repro.spice.analysis.tran import TransientStepper
    from repro.spice.mna import MnaSystem
    from repro.uwb import UwbConfig

    config = UwbConfig()
    waveform, _bits = make_table1_waveform(config, N_SYMBOLS, SEED)
    out: list[float] = []
    counts = {"newton_calls": 0, "iterations": 0}
    originals = {}

    def counted(name, key):
        original = originals[name] = getattr(MnaSystem, name)

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)
        return wrapper

    step = originals["step"] = TransientStepper.step

    def recording_step(self):
        step(self)
        out.append(self.vdiff("out_intp", "out_intm"))

    MnaSystem.newton = counted("newton", "newton_calls")
    MnaSystem.stamp_nonlinear = counted("stamp_nonlinear", "iterations")
    TransientStepper.step = recording_step
    try:
        ops.run_testbench(
            LinkSpec(config=config, integrator="circuit"), waveform,
            t_stop=N_SYMBOLS * config.symbol_period, engine="compiled")
    finally:
        TransientStepper.step = step
        for name in ("newton", "stamp_nonlinear"):
            setattr(MnaSystem, name, originals[name])
    return {"seed": SEED, "n_symbols": N_SYMBOLS, **counts, "out": out}


def test_eldo_span_matches_golden():
    golden = json.loads(GOLDEN.read_text())
    run = run_eldo_span()
    assert run["newton_calls"] == golden["newton_calls"]
    assert run["iterations"] == golden["iterations"]
    np.testing.assert_allclose(run["out"], golden["out"], rtol=1e-12,
                               atol=0.0)


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(run_eldo_span(), indent=1) + "\n")
    print(f"wrote {GOLDEN}")
