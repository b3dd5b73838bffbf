"""The benchmark's own tests: perturbed outputs are caught, tracing
restores every wrapped target, and ``BENCHMARK.json`` names exactly
the metrics the benchmark prints.

Run from the repository root: ``python3 -m pytest -q perfbench``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from layers import LAYER_METRICS, LayerTracer  # noqa: E402


def _per_seed_share(reference, seeds):
    """Reference counts scaled down to one operation's bits."""
    return {name: (round(e / seeds), b // seeds)
            for name, (e, b) in reference.items()}


@pytest.mark.parametrize("name", ["ber_fig6", "ber_mui"])
def test_reference_accepts_expected_counts(name):
    reference = workloads.load_reference(name)
    seeds = len(json.loads(workloads.REFERENCE_PATH.read_text())
                [name]["seeds"])
    assert workloads.off_reference(
        _per_seed_share(reference, seeds), reference) == []


@pytest.mark.parametrize("name", ["ber_fig6", "ber_mui"])
def test_reference_catches_perturbed_counts(name):
    reference = workloads.load_reference(name)
    seeds = len(json.loads(workloads.REFERENCE_PATH.read_text())
                [name]["seeds"])
    cells = _per_seed_share(reference, seeds)
    # Inverted decisions: every cell's error count becomes bits - errors,
    # which is caught wherever the BER is clearly away from 1/2.
    inverted = {k: (b - e, b) for k, (e, b) in cells.items()}
    resolvable = {k for k, (e, b) in cells.items() if e < 0.4 * b}
    assert resolvable
    assert resolvable <= set(workloads.off_reference(inverted, reference))
    # One cell with a doubled error count.
    worst = max(cells, key=lambda k: cells[k][0])
    doubled = dict(cells)
    e, b = cells[worst]
    doubled[worst] = (min(2 * e, b), b)
    assert workloads.off_reference(doubled, reference) == [worst]
    # A missing cell is off too.
    missing = dict(cells)
    del missing[worst]
    assert workloads.off_reference(missing, reference) == [worst]


def test_check_catches_counters_that_change_between_operations():
    workload = workloads.Workload(seed=1)
    first = workloads.OpResult(wall_s=1.0, unit_s=1.0, units=1,
                               cells={"a": (3, 10)})
    assert workload.check(first).problems == []
    moved = workloads.OpResult(wall_s=1.0, unit_s=1.0, units=1,
                               cells={"a": (4, 10)})
    assert workload.check(moved).problems


def test_declared_bits_are_checked():
    result = workloads.OpResult(wall_s=1.0, unit_s=1.0, units=2,
                                cells={"a": (1, 100), "b": (1, 99)})
    workloads._check_bits(result, 100)
    assert len(result.problems) == 1 and "b" in result.problems[0]


def _row(bits, cpu_time, steps=10):
    return SimpleNamespace(bits=np.asarray(bits, dtype=np.int8),
                           cpu_time=cpu_time, steps=steps)


def test_table1_checks_catch_perturbed_rows():
    tx = np.array([1, 0, 1, 1], dtype=np.int8)
    good = {"IDEAL": _row(tx, 0.01), "VHDL-AMS": _row(tx, 0.02),
            "ELDO": _row(tx, 1.0)}
    assert workloads.table1_problems(good, tx, 10) == []
    flipped = dict(good, ELDO=_row([1, 0, 1, 0], 1.0))
    assert any("tx_bits" in p
               for p in workloads.table1_problems(flipped, tx, 10))
    cheap = dict(good, ELDO=_row(tx, 0.03))
    assert any("ordering" in p
               for p in workloads.table1_problems(cheap, tx, 10))
    short = dict(good, ELDO=_row(tx, 1.0, steps=9))
    assert any("steps" in p
               for p in workloads.table1_problems(short, tx, 10))


def _report(executed, cached, cells):
    results = [SimpleNamespace(name=name, value=SimpleNamespace(
        errors=np.array([e]), bits=np.array([b])))
        for name, (e, b) in cells.items()]
    return SimpleNamespace(executed=executed, cached=cached,
                           results=results)


def test_replay_checks_catch_perturbed_passes():
    cells = {"s0": (1, 200), "s1": (5, 200)}
    cold = _report(2, 0, cells)
    assert workloads.replay_problems(cold, _report(0, 2, cells), 2) == []
    reran = _report(1, 1, cells)
    assert workloads.replay_problems(cold, reran, 2)
    changed = _report(0, 2, dict(cells, s1=(6, 200)))
    assert any("differ" in p
               for p in workloads.replay_problems(cold, changed, 2))


def _attributes(tracer_targets):
    return {(id(owner), attr): vars(owner).get(attr)
            for owner, attr in tracer_targets}


def test_tracer_wraps_every_target_and_restores_them():
    tracer = LayerTracer()
    tracer.install()
    try:
        assert tracer.missing == []
        targets = [(owner, attr) for owner, attr, _orig
                   in tracer._restore]
        originals = {(id(owner), attr): orig
                     for owner, attr, orig in tracer._restore}
        assert len(targets) >= 20
    finally:
        tracer.uninstall()
    assert tracer._restore == []
    assert _attributes(targets) == originals


class _SmallFig6(workloads.BerFig6):
    BITS = 2_000


def test_traced_counts_repeat_exactly():
    counts = []
    for _ in range(2):
        workload = _SmallFig6(seed=5)
        workload.op()  # warm-up fills the calibration memo, as in a run
        tracer = LayerTracer()
        tracer.install()
        try:
            result = workload.op()
        finally:
            tracer.uninstall()
        metrics = tracer.metrics([result.total_s], [result.total_s],
                                  [result.total_s])
        counts.append((metrics["link.chunks"], metrics["uwb.bpf.samples"]))
    assert counts[0] == counts[1]
    assert counts[0][0] == 2.0  # 2,000 bits in 1,000-bit chunks


def test_benchmark_json_matches_printed_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert {w["name"] for w in spec["workloads"]} <= set(
        run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == list(LAYER_METRICS)
