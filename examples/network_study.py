#!/usr/bin/env python3
"""Network study: multi-user interference and near-far over NetworkSpec.

Run:  python examples/network_study.py [--full]

Builds a victim link plus interferers declaratively, runs one curve by
hand through ``ops.mui_ber_curve``, then the packaged ``mui`` study
(interferer-count sweep + near-far) through the campaign harness.

``REPRO_SMOKE=1`` shrinks the grids so CI can smoke-test the script
in seconds.
"""

import os
import sys

import numpy as np

from repro.experiments.mui_network import default_victim, run_mui
from repro.link import ops
from repro.link.spec import InterfererSpec, NetworkSpec

SMOKE = os.environ.get("REPRO_SMOKE") == "1"


def main() -> None:
    quick = "--full" not in sys.argv

    # One network, by hand: the victim of the fig6 conventions plus a
    # single equal-power interferer offset by 0.41 slots.
    victim = default_victim()
    network = NetworkSpec(victim=victim, interferers=(
        InterfererSpec(rel_power_db=0.0,
                       timing_offset=0.41 * victim.config.slot),))
    grid = (6.0, 14.0) if SMOKE else (2.0, 6.0, 10.0, 14.0)
    budget = dict(target_errors=40, max_bits=8_000, min_bits=2_000) \
        if SMOKE else {}
    clean = ops.mui_ber_curve(NetworkSpec(victim=victim), grid,
                              np.random.default_rng(7),
                              label="victim alone", **budget)
    jammed = ops.mui_ber_curve(network, grid, np.random.default_rng(7),
                               label="one 0dB interferer", **budget)
    print("Single network - victim vs one equal-power interferer")
    print(clean.format_table())
    print()
    print(jammed.format_table())
    print()

    # The packaged study: count sweep + near-far through the campaign
    # layer.
    mui_kwargs = {}
    if SMOKE:
        mui_kwargs = dict(ebn0_grid=(6.0, 14.0), counts=(0, 1, 2),
                          sir_grid=(0.0,),
                          near_far_distances=(3.0, 9.9),
                          budget=budget)
    result = run_mui(quick=quick, **mui_kwargs)
    print(result.format_report())


if __name__ == "__main__":
    main()
