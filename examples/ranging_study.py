#!/usr/bin/env python3
"""Localization study: table 2 and the two-stage AGC fix.

Reproduces the paper's two-way-ranging experiment at 9.9 m over the
TG4a CM1 LOS channel with the ideal and circuit integrators, then shows
how the proposed two-stage AGC removes the compression-induced offset.

Run:  python examples/ranging_study.py [distance_m]

``REPRO_SMOKE=1`` shrinks the iteration counts so CI can smoke-test
the script in seconds.
"""

import os
import sys

import numpy as np

from repro.experiments.ablations import run_agc_ablation
from repro.experiments.table2_twr import TWR_NOISE_SIGMA, run_table2, twr_spec
from repro.link import ops

SMOKE = os.environ.get("REPRO_SMOKE") == "1"


def main() -> None:
    distance = float(sys.argv[1]) if len(sys.argv) > 1 else 9.9

    table2 = run_table2(distance=distance,
                        iterations=3 if SMOKE else 10, seed=42)
    print(table2.format_report())
    print()

    ablation = run_agc_ablation(distance=distance,
                                iterations=2 if SMOKE else 8, seed=42)
    print(ablation.format_report())
    print()

    # Distance sweep with the ideal integrator: ranging degrades
    # gracefully with path loss.  Each point is the same LinkSpec with
    # only the channel distance changed.
    print("Distance sweep (ideal integrator):")
    for d in (3.0, 9.9) if SMOKE else (3.0, 6.0, 9.9):
        spec = twr_spec(d, integrator="ideal")
        res = ops.ranging(spec, 2 if SMOKE else 6,
                          np.random.default_rng(1),
                          noise_sigma=TWR_NOISE_SIGMA)
        print(f"  {d:5.1f} m -> mean {res.mean:6.2f} m, "
              f"std {res.std:5.2f} m")


if __name__ == "__main__":
    main()
