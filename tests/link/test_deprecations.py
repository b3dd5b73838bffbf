"""The harnesses and link operations run warning-free.

The CI deprecation job runs the whole Tier-1 suite under
``-W error::DeprecationWarning``; these tests additionally prove the
main entry points are silent on their own.
"""

import warnings

import numpy as np

from repro.link import LinkSpec, build_bpf, ops
from repro.uwb.config import UwbConfig
from repro.uwb.modulation import ppm_waveform

FAST = UwbConfig(fs=8e9, symbol_period=16e-9, pulse_tau=0.225e-9,
                 pulse_order=5, integration_window=2e-9)
SPEC = LinkSpec(config=FAST)
BUDGET = dict(target_errors=10, max_bits=1000, min_bits=400)


def clean_signal(bits):
    wave = ppm_waveform(np.asarray(bits, dtype=np.int8), FAST,
                        amplitude=1.0)
    sig = build_bpf(SPEC)(wave)
    return 0.25 * sig / np.max(np.abs(sig))


class TestInternalPipelineIsWarningFree:
    """The migrated harnesses must never route through a shim."""

    def test_experiments_emit_no_deprecation_warnings(self):
        from repro.experiments import run_fig6, run_table1, run_table2
        from repro.link import run_equivalence
        from repro.link.equivalence import PHASE1_SPEC

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            run_fig6(ebn0_grid=(8.0,), quick=True, seed=7)
            run_table1(simulated_time=0.05e-6, measure_reference=False)
            run_table2(iterations=1, seed=42)
            run_equivalence(PHASE1_SPEC, ebn0_grid=(8.0,), bits=20,
                            engines=("compiled",))

    def test_backends_emit_no_deprecation_warnings(self):
        from repro.link import run_equivalence

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            ops.ber_curve(SPEC, [8.0], np.random.default_rng(1), **BUDGET)
            ops.run_testbench(
                SPEC, clean_signal(np.array([1, 0], dtype=np.int8)))
            run_equivalence(bits=20, seed=3)
