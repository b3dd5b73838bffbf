"""Benchmark: regenerate Table 2 (TWR @ 9.9 m, ideal vs circuit)."""

from benchmarks.conftest import full_scale
from repro.experiments.table2_twr import run_table2


def test_table2_twr(benchmark, report_sink):
    iterations = 30 if full_scale() else 10  # paper: 10
    result = benchmark.pedantic(
        lambda: run_table2(iterations=iterations, seed=42),
        rounds=1, iterations=1)
    report_sink(result.format_report())
    for label, res in result.comparison.entries.items():
        benchmark.extra_info[f"{label}_mean_m"] = round(res.mean, 3)
        benchmark.extra_info[f"{label}_variance"] = round(res.variance, 3)
    benchmark.extra_info["paper"] = \
        "ideal 10.10/0.49, circuit 11.16/0.10"
    comparison = result.comparison
    # Shape: both near 9.9 m; the circuit model shows the larger offset.
    for res in comparison.entries.values():
        assert 9.0 < res.mean < 13.5
    assert comparison.offset_increased("ideal", "circuit")
