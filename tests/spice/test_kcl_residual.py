"""KCL residual oracle at every accepted point of the Table-1 ELDO span.

The Newton loop stamps through flat index patterns compiled once per
system.  This oracle does not use them: at each accepted transient point
it assembles the MNA residual ``F(x) = G x + i_companions(x) + i_mos(x)
- b`` from the dense static matrix ``g_static``, the step's companion
models recomputed from the stepper's state, and the MOSFET currents,
scattered to their nodes with plain loops.  A transposed or dropped stamp
moves the converged point off the circuit's equations and fails it.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.table1_cpu import make_table1_waveform
from repro.link import ops
from repro.link.spec import LinkSpec
from repro.spice.analysis.tran import TransientStepper
from repro.spice.mna import MnaSystem
from repro.uwb.config import UwbConfig

SEED = 1
N_SYMBOLS = 2


def kcl_residual(stepper: TransientStepper, h: float, x: np.ndarray,
                 t: float, overrides) -> tuple[np.ndarray, np.ndarray]:
    """Residual of the step of length *h* that the stepper accepts at
    *x*, and per row the largest magnitude of the terms summed into
    it."""
    system = stepper.system
    assert system.diode_group is None and system.switch_group is None
    n = system.size
    x_full = np.append(x, 0.0)
    terms = system.g_static * x_full
    f = terms.sum(axis=1)
    mag = np.abs(terms).max(axis=1)

    def add(row: int, value: float) -> None:
        f[row] += value
        mag[row] = max(mag[row], abs(value))

    for node in range(system.n_nodes):
        add(node, system.gmin * x[node])
    for row, value in enumerate(system.source_vector(t=t,
                                                     overrides=overrides)):
        add(row, -value)
    # Companions of the step, from the state the step started from.
    c = stepper.c_val
    if stepper.method == "trap":
        geq = 2.0 * c / h
        ieq = -(geq * stepper.v_cap + stepper.i_cap)
    else:
        geq = c / h
        ieq = -geq * stepper.v_cap
    for k in range(len(c)):
        a, b = system.dyn_n1[k], system.dyn_n2[k]
        current = geq[k] * (x_full[a] - x_full[b]) + ieq[k]
        add(a, current)
        add(b, -current)
    for j, row in enumerate(system.ind_rows):
        leq = system.ind_val[j] / h
        add(row, -leq * (x[row] - stepper.x[row]))
    # Channel currents, into the effective drain.
    grp = system.mos_group
    ev = grp.evaluate(x_full)
    for k in range(grp.count):
        d, s = grp.nd[k], grp.ns[k]
        if ev.reversed[k]:
            d, s = s, d
        add(d, ev.ids[k])
        add(s, -ev.ids[k])
    return f[:n], mag[:n]


def run_checked_span() -> list[float]:
    """Run the ELDO row over the span; return, per accepted point, the
    largest residual in units of its tolerance: Spice's current test
    ``reltol * (largest term) + abstol`` with the system's own
    tolerances."""
    config = UwbConfig()
    waveform, _bits = make_table1_waveform(config, N_SYMBOLS, SEED)
    advance, newton = TransientStepper._advance, MnaSystem.newton
    active: list[tuple[TransientStepper, float]] = []
    ratios: list[float] = []

    def tracked_advance(self, h, depth):
        active.append((self, h))
        try:
            return advance(self, h, depth)
        finally:
            active.pop()

    def checked_newton(system, x0=None, **kwargs):
        x = newton(system, x0, **kwargs)
        if active:
            stepper, h = active[-1]
            f, mag = kcl_residual(stepper, h, x, kwargs["t"],
                                  kwargs["overrides"])
            tol = system.reltol * mag + system.abstol
            ratios.append(float(np.max(np.abs(f) / tol)))
        return x

    TransientStepper._advance = tracked_advance
    MnaSystem.newton = checked_newton
    try:
        ops.run_testbench(
            LinkSpec(config=config, integrator="circuit"), waveform,
            t_stop=N_SYMBOLS * config.symbol_period, engine="compiled")
    finally:
        TransientStepper._advance = advance
        MnaSystem.newton = newton
    return ratios


def test_accepted_points_satisfy_kcl():
    ratios = run_checked_span()
    worst = int(np.argmax(ratios))
    assert ratios[worst] <= 1.0, (worst, ratios[worst])
    # One accepted point per step, more where a step was split.
    assert len(ratios) >= 640
