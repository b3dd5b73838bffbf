"""Benchmark: regenerate Table 1 (CPU time per integrator model)."""

from benchmarks.conftest import full_scale, write_bench_artifact
from repro.experiments.table1_cpu import run_table1


def test_table1_cpu_time(benchmark, report_sink):
    # Paper simulates 30 us; the ratios stabilize after a few symbols.
    span = 30e-6 if full_scale() else 0.3e-6
    result = benchmark.pedantic(
        lambda: run_table1(simulated_time=span), rounds=1, iterations=1)
    report_sink(result.format_report())
    entries = result.report.entries
    benchmark.extra_info.update(
        {k: round(v, 4) for k, v in entries.items()})
    benchmark.extra_info["eldo_over_ideal"] = round(
        entries["ELDO"] / entries["IDEAL"], 2)
    benchmark.extra_info["paper_eldo_over_ideal"] = 6.5
    speedup = result.engine_speedup("IDEAL")
    benchmark.extra_info["compiled_speedup_ideal"] = round(speedup, 2)
    write_bench_artifact("table1", {
        "simulated_time_s": span,
        "engine": result.engine,
        "cpu_seconds": {k: round(v, 6) for k, v in entries.items()},
        "ideal_reference_seconds": round(
            result.reference_times["IDEAL"], 6),
        "compiled_speedup_ideal": round(speedup, 2),
        "engines_identical_bits": result.engines_agree(),
        "eldo_over_ideal": round(entries["ELDO"] / entries["IDEAL"], 2),
    })
    # Shape: circuit-in-the-loop dominates by a large multiple.
    assert result.cosim_dominates()
    assert entries["ELDO"] / entries["IDEAL"] > 4.0
    # Engine acceptance: the compiled engine demodulates identical bits
    # and beats the lock-step oracle on the ideal row.  The recorded
    # best-of-N speedup (target >= 5x, see BENCH_table1.json) tracks
    # the real margin; the assertion only guards the direction, so a
    # noisy shared CI runner cannot flake the suite.
    assert result.engines_agree()
    assert speedup > 1.5
