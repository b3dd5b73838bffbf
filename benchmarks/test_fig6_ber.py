"""Benchmark: regenerate Figure 6 (BER vs Eb/N0, ideal vs circuit)."""

from benchmarks.conftest import (
    committed_ber_arrays,
    full_scale,
    write_bench_artifact,
)
from repro.experiments.fig6_ber import run_fig6


def test_fig6_ber_curves(benchmark, report_sink):
    quick = not full_scale()
    committed = committed_ber_arrays("fig6")
    grid = (0, 2, 4, 6, 8, 10, 12, 14) if full_scale() \
        else (2, 6, 10, 14)
    result = benchmark.pedantic(
        lambda: run_fig6(ebn0_grid=grid, quick=quick, seed=7),
        rounds=1, iterations=1)
    report_sink(result.format_report())
    cmp_ = result.comparison
    benchmark.extra_info["ber_ideal"] = [float(x) for x in cmp_.ber_a]
    benchmark.extra_info["ber_circuit"] = [float(x) for x in cmp_.ber_b]
    benchmark.extra_info["winner_high_snr"] = cmp_.wins_at_high_snr()
    # BER numbers only: speed is measured by perfbench's repeated runs
    # (ber_fig6), not by this single round.
    payload = {
        "points": len(grid) * 2,
        "ebn0_db": [float(x) for x in cmp_.ebn0_db],
        "ber_ideal": [float(x) for x in cmp_.ber_a],
        "ber_circuit": [float(x) for x in cmp_.ber_b],
        "winner_high_snr": cmp_.wins_at_high_snr(),
    }
    write_bench_artifact("fig6", payload)
    # The committed copy is the quick-scale run: its BER arrays pin the
    # counts bit for bit.
    if quick:
        assert {key: payload[key] for key in committed} == committed
    # Shape: monotone decrease; circuit at or below ideal at the top
    # grid point (paired noise).
    assert result.monotone
    assert cmp_.ber_b[-1] <= cmp_.ber_a[-1] * 1.10
