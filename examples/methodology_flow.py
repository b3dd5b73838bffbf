#!/usr/bin/env python3
"""The refinement flow on the UWB receiver testbench.

Runs the *same* system testbench with the Integrate & Dump rebound to
its Phase II / IV / III architectures - ``LinkSpec(integrator=name)``
for ``ideal``, ``two_pole`` and the co-simulated transistor
``circuit`` (substitute-and-play) - and prints the system metric
(demodulated bits) plus the Table-1-style CPU account.  Each row is
labelled with the model's ``phase``.

Run:  python examples/methodology_flow.py
``REPRO_SMOKE=1`` shrinks the simulated burst so CI can smoke-test
the script in seconds.
"""

import os

import numpy as np

from repro.core.metrics import CpuTimeReport
from repro.link import ops
from repro.link.backends import build_bpf
from repro.link.spec import INTEGRATORS, LinkSpec
from repro.uwb.config import UwbConfig
from repro.uwb.modulation import ppm_waveform, random_bits


SMOKE = os.environ.get("REPRO_SMOKE") == "1"


def main() -> None:
    config = UwbConfig()
    rng = np.random.default_rng(3)
    tx_bits = random_bits(6 if SMOKE else 12, rng)
    wave = ppm_waveform(tx_bits, config)
    wave = wave + rng.normal(0.0, 0.02, len(wave))
    sig = build_bpf(LinkSpec(config=config))(wave)
    sig = 0.25 * sig / np.max(np.abs(sig))

    report = CpuTimeReport(simulated_time=len(sig) / config.fs)
    for name in ("ideal", "two_pole", "circuit"):
        # Only the integrator name changes; ops.run_testbench hosts the
        # "circuit" netlist in the loop (Phase III co-simulation).
        result = ops.run_testbench(LinkSpec(config=config, integrator=name),
                                   sig)
        label = f"{name}@{INTEGRATORS[name].phase}"
        errors = int(np.sum(result.bits != tx_bits[:len(result.bits)]))
        report.add(f"Phase {INTEGRATORS[name].phase}", result.cpu_time)
        print(f"{label:>14s}: bits={result.bits.tolist()} "
              f"errors={errors} cpu={result.cpu_time:.3f}s")
    print()
    print(report.format_table())


if __name__ == "__main__":
    main()
