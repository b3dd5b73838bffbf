"""Benchmark harness configuration.

Every benchmark regenerates one table or figure of the paper, prints the
report (run pytest with ``-s`` to see them), stores the headline numbers
in ``benchmark.extra_info`` and asserts the qualitative claim.
Paper-scale (slow) variants are enabled with ``REPRO_FULL=1``.

Timing-relevant benchmarks additionally write machine-readable
``BENCH_<name>.json`` artifacts (via :func:`write_bench_artifact`) so
the performance trajectory is tracked PR-over-PR.  By default they land
in the gitignored ``.benchmarks/`` directory, keeping plain test runs
from dirtying the tracked ``BENCH_*.json`` copies at the repo root; to
refresh those intentionally, run with ``REPRO_BENCH_DIR=.``.  The BER
artifacts (fig6, mui) record result numbers only; speed is measured
and gated by the repeated-run ``perfbench`` harness, not by one
wall-clock sample here; at quick scale their BER arrays must equal the
committed copies (:func:`committed_ber_arrays`).
"""

import json
import os
import pathlib
import platform

import pytest

_REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def full_scale() -> bool:
    return os.environ.get("REPRO_FULL", "0") == "1"


def write_bench_artifact(name: str, payload: dict) -> pathlib.Path:
    """Write ``BENCH_<name>.json`` with the given headline numbers.

    Relative ``REPRO_BENCH_DIR`` values resolve against the repo root
    (not the pytest CWD), so ``REPRO_BENCH_DIR=.`` refreshes the
    committed copies no matter where pytest was launched from.
    """
    override = os.environ.get("REPRO_BENCH_DIR")
    if override is None:
        out_dir = _REPO_ROOT / ".benchmarks"
    else:
        out_dir = _REPO_ROOT / override  # absolute overrides win
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"BENCH_{name}.json"
    record = {
        "benchmark": name,
        "full_scale": full_scale(),
        "python": platform.python_version(),
        "machine": platform.machine(),
    }
    record.update(payload)
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return path


def committed_ber_arrays(name: str) -> dict:
    """The ``ber_*`` and ``near_far_ber`` entries of the committed
    ``BENCH_<name>.json`` at the repo root.  Read it before the run
    writes its artifact: ``REPRO_BENCH_DIR=.`` overwrites that copy."""
    committed = json.loads((_REPO_ROOT / f"BENCH_{name}.json").read_text())
    return {key: value for key, value in committed.items()
            if key.startswith("ber_") or key == "near_far_ber"}


@pytest.fixture
def report_sink(capsys):
    """Print a report so it survives pytest's capture with -s."""

    def sink(text: str) -> None:
        print("\n" + text)

    return sink
