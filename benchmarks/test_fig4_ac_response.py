"""Benchmark: regenerate Figure 4 (integrator AC response)."""

from benchmarks.conftest import full_scale
from repro.experiments.fig4_ac import run_fig4


def test_fig4_ac_response(benchmark, report_sink):
    points = 20 if full_scale() else 10
    result = benchmark.pedantic(
        lambda: run_fig4(points_per_decade=points), rounds=1, iterations=1)
    report_sink(result.format_report())
    benchmark.extra_info["gain_db"] = result.fit.gain_db
    benchmark.extra_info["fp1_mhz"] = result.fit.fp1_hz / 1e6
    benchmark.extra_info["fp2_ghz"] = result.fit.fp2_hz / 1e9
    benchmark.extra_info["overlap_rms_db"] = result.overlap_rms_db
    benchmark.extra_info["paper"] = "21 dB, 0.886 MHz, 5.895 GHz"
    # Figure-4 shape assertions.
    assert abs(result.fit.gain_db - 21.0) < 2.5
    assert 0.4e6 < result.fit.fp1_hz < 2e6
    assert 3e9 < result.fit.fp2_hz < 15e9
    assert abs(result.slope_db_per_decade(10e6, 1e9) + 20.0) < 1.0
    assert result.overlap_rms_db < 0.5
