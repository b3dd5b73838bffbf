"""Benchmark: multi-user interference study over ``NetworkSpec``.

The network-level claim of record: the non-coherent 2-PPM
energy-detection receiver degrades monotonically as same-band
interferers are added at fixed Eb/N0, and a near-far aggressor
closing in (received power following the TG4a path-loss law) drives
the link interference-limited.
"""

from benchmarks.conftest import (
    committed_ber_arrays,
    full_scale,
    write_bench_artifact,
)
from repro.experiments.mui_network import run_mui


def test_mui_network_ber(benchmark, report_sink):
    quick = not full_scale()
    committed = committed_ber_arrays("mui")
    result = benchmark.pedantic(
        lambda: run_mui(quick=quick, seed=11),
        rounds=1, iterations=1)
    report_sink(result.format_report())

    sweeps = {f"ber_top_sir{sir:g}":
              [ber for _n, ber in result.count_sweep(sir)]
              for sir in result.sir_grid}
    near_far = {f"{d:g}": float(curve.ber[0])
                for d, curve in sorted(result.near_far.items())}
    benchmark.extra_info["counts"] = list(result.counts)
    benchmark.extra_info.update(sweeps)
    # BER numbers only: speed is measured by perfbench's repeated runs
    # (ber_mui), not by this single round.
    payload = {
        "points": (sum(len(c.ber) for c in result.curves.values())
                   + len(result.near_far)),
        "ebn0_db": list(result.ebn0_grid),
        "counts": list(result.counts),
        "sir_db": list(result.sir_grid),
        **sweeps,
        "near_far_ebn0_db": result.near_far_ebn0,
        "near_far_ber": near_far,
    }
    write_bench_artifact("mui", payload)
    # The committed copy is the quick-scale run: its BER arrays pin the
    # counts bit for bit.
    if quick:
        assert {key: payload[key] for key in committed} == committed

    # The acceptance claims: more interferers always hurt, and so does
    # a closer aggressor.
    assert result.monotone_in_interferers
    assert result.near_far_monotone
    distances = sorted(result.near_far)
    closest = float(result.near_far[distances[0]].ber[0])
    farthest = float(result.near_far[distances[-1]].ber[0])
    assert closest > farthest
