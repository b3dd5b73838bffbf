#!/usr/bin/env python3
"""Quickstart: the methodology in five minutes.

1. Build the paper's 31-transistor Integrate & Dump circuit.
2. Characterize it (figure 4): DC gain + two poles.
3. Auto-extract the Phase-IV behavioral model, including the measured
   input nonlinearity (the part the paper's hand-written model missed).
4. Compare a small BER sweep with the ideal and circuit-derived models.

Run:  python examples/quickstart.py

``REPRO_SMOKE=1`` shrinks the BER sweep so CI can smoke-test the
script in seconds.
"""

import os

import numpy as np

from repro.circuits.integrate_dump import (
    build_integrate_dump,
    count_transistors,
)
from repro.core.characterize import build_surrogate, characterize_integrator
from repro.link import ops
from repro.link.spec import LinkSpec

SMOKE = os.environ.get("REPRO_SMOKE") == "1"


def main() -> None:
    # --- 1. the transistor-level circuit -----------------------------
    subckt = build_integrate_dump()
    print(f"Integrate & Dump netlist: {count_transistors(subckt.circuit)} "
          f"transistors, ports {', '.join(subckt.ports)}")

    # --- 2. figure-4 characterization ---------------------------------
    fit, _freqs, _mag = characterize_integrator()
    print(f"AC fit: gain {fit.gain_db:.2f} dB, poles "
          f"{fit.fp1_hz / 1e6:.2f} MHz / {fit.fp2_hz / 1e9:.2f} GHz "
          f"(paper: 21 dB, 0.886 MHz, 5.895 GHz)")

    # --- 3. automated Phase IV ----------------------------------------
    surrogate = build_surrogate()
    print(f"Extracted circuit surrogate: {surrogate.describe()}")

    # --- 4. BER comparison --------------------------------------------
    # One front door: the link is declared once as a LinkSpec and the
    # BER op swaps integrator models (substitute-and-play).  The
    # extracted surrogate overrides the registry's analytic circuit
    # model.
    grid = [4.0, 8.0] if SMOKE else [4.0, 8.0, 12.0]
    budget = (dict(target_errors=20, max_bits=4_000, min_bits=1_000)
              if SMOKE else
              dict(target_errors=40, max_bits=20_000, min_bits=2_000))
    spec = LinkSpec(integrator="ideal")
    ideal = ops.ber_curve(spec, grid, np.random.default_rng(1),
                          label="ideal", **budget)
    circuit = ops.ber_curve(LinkSpec(integrator="circuit"), grid,
                            np.random.default_rng(1),
                            integrator=surrogate, label="circuit",
                            **budget)
    print(f"{'Eb/N0':>7s} {'ideal':>10s} {'circuit':>10s}")
    for e, a, b in zip(grid, ideal.ber, circuit.ber):
        print(f"{e:>7.1f} {a:>10.4f} {b:>10.4f}")


if __name__ == "__main__":
    main()
