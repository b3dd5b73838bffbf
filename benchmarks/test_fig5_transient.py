"""Benchmark: regenerate Figure 5 (integrate/hold/dump transient)."""

from benchmarks.conftest import full_scale
from repro.experiments.fig5_transient import run_fig5, run_fig5_drive_sweep


def test_fig5_transient(benchmark, report_sink):
    dt = 0.05e-9 if full_scale() else 0.2e-9  # paper step: 0.05 ns
    result = benchmark.pedantic(lambda: run_fig5(dt=dt),
                                rounds=1, iterations=1)
    report_sink(result.format_report())
    benchmark.extra_info["held_circuit_mv"] = \
        result.held_value(result.circuit) * 1e3
    benchmark.extra_info["held_model_mv"] = \
        result.held_value(result.model) * 1e3
    benchmark.extra_info["mismatch_pct"] = \
        result.model_vs_circuit_mismatch * 100
    assert result.held_value(result.circuit) > 0.1
    assert result.model_vs_circuit_mismatch < 0.25
    assert result.reset_works(tol=1e-2)


def test_fig5_distortion_at_large_drive(benchmark, report_sink):
    """The paper's figure-5 commentary: the pole-only model misses the
    input-range distortion, visible at larger drives (declared as one
    drive-level sweep over the scenario runner)."""
    result = benchmark.pedantic(
        lambda: run_fig5_drive_sweep(drives=(0.02, 0.15), dt=0.4e-9),
        rounds=1, iterations=1)
    small, large = result
    report_sink(
        "Figure 5 distortion check:\n"
        f"  mismatch at 20 mV : {small.model_vs_circuit_mismatch:.3f}\n"
        f"  mismatch at 150 mV: {large.model_vs_circuit_mismatch:.3f}")
    benchmark.extra_info["mismatch_small"] = \
        small.model_vs_circuit_mismatch
    benchmark.extra_info["mismatch_large"] = \
        large.model_vs_circuit_mismatch
    assert (large.model_vs_circuit_mismatch
            > small.model_vs_circuit_mismatch)
