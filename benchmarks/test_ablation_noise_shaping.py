"""Benchmark: BER sensitivity to the integrator's second pole (the
noise-shaping mechanism the paper cites for figure 6 / table 2)."""

from benchmarks.conftest import full_scale
from repro.experiments.ablations import run_noise_shaping_ablation


def test_noise_shaping_ablation(benchmark, report_sink):
    quick = not full_scale()
    result = benchmark.pedantic(
        lambda: run_noise_shaping_ablation(ebn0_db=12.0, quick=quick,
                                           seed=7),
        rounds=1, iterations=1)
    report_sink(result.format_report())
    benchmark.extra_info["ber_ideal"] = float(result.ber_ideal)
    benchmark.extra_info["ber_vs_fp2"] = [
        float(x) for x in result.ber_shaped]
    # A pole far above the squared-noise band is equivalent to ideal;
    # all variants stay within a factor ~2 (the integration window is
    # itself the dominant noise filter - see EXPERIMENTS.md).
    assert result.ber_shaped[-1] <= result.ber_ideal * 1.5
    assert all(b <= result.ber_ideal * 2.0 for b in result.ber_shaped)
