"""Benchmark: the paper's proposed two-stage AGC removes the TWR
offset caused by integrator input-range compression."""

from benchmarks.conftest import full_scale
from repro.experiments.ablations import run_agc_ablation


def test_two_stage_agc_ablation(benchmark, report_sink):
    iterations = 20 if full_scale() else 8
    result = benchmark.pedantic(
        lambda: run_agc_ablation(iterations=iterations, seed=42),
        rounds=1, iterations=1)
    report_sink(result.format_report())
    benchmark.extra_info["single_offset_m"] = round(
        result.single_stage.offset, 3)
    benchmark.extra_info["two_stage_offset_m"] = round(
        result.two_stage.offset, 3)
    # The fix must not worsen the offset, and typically reduces it.
    assert abs(result.two_stage.offset) <= abs(
        result.single_stage.offset) + 0.05
