#!/usr/bin/env python3
"""Link study: figure-6 BER curves and the noise-shaping ablation.

Run:  python examples/ber_study.py [--full]

``REPRO_SMOKE=1`` shrinks the grids so CI can smoke-test the script
in seconds.
"""

import os
import sys

from repro.experiments.ablations import run_noise_shaping_ablation
from repro.experiments.fig6_ber import run_fig6

SMOKE = os.environ.get("REPRO_SMOKE") == "1"


def main() -> None:
    quick = "--full" not in sys.argv

    fig6_kwargs = {}
    shaping_kwargs = {}
    if SMOKE:
        fig6_kwargs["ebn0_grid"] = (0, 6, 12)
        shaping_kwargs["fp2_grid"] = (1e9, 6e9)

    fig6 = run_fig6(quick=quick, **fig6_kwargs)
    print(fig6.format_report())
    print()

    shaping = run_noise_shaping_ablation(quick=quick, **shaping_kwargs)
    print(shaping.format_report())


if __name__ == "__main__":
    main()
