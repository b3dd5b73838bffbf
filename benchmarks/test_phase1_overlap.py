"""Benchmark: Phase-I validation (AMS kernel vs golden model BER)."""

from benchmarks.conftest import full_scale
from repro.link.equivalence import PHASE1_SPEC, run_equivalence


def test_phase1_overlap(benchmark, report_sink):
    bits = 300 if full_scale() else 60
    result = benchmark.pedantic(
        lambda: run_equivalence(PHASE1_SPEC, ebn0_grid=(6.0, 10.0),
                                bits=bits, seed=23,
                                engines=("compiled",)),
        rounds=1, iterations=1)
    report_sink(result.format_report())
    benchmark.extra_info["agreement"] = round(
        result.decision_agreement, 4)
    benchmark.extra_info["max_ber_gap"] = round(result.max_ber_gap, 4)
    # Paper: "BER curves which perfectly overlapped the Matlab ones".
    assert result.decision_agreement > 0.9
    assert result.max_ber_gap < 0.08
