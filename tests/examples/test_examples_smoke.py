"""CI smoke tests for the ``examples/`` scripts.

Each script runs as a subprocess with ``REPRO_SMOKE=1`` (reduced
iteration counts, seconds-scale) so the documented entry points cannot
silently rot.  The scripts must exit cleanly and print their headline
sections.
"""

import os
import pathlib
import subprocess
import sys

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
EXAMPLES = REPO_ROOT / "examples"
SRC = REPO_ROOT / "src"

#: script name -> text the smoke run must print.
EXPECTED_OUTPUT = {
    "quickstart.py": "Integrate & Dump netlist",
    "ber_study.py": "Figure 6 - BER vs Eb/N0",
    "ranging_study.py": "Table 2 - TWR",
    "methodology_flow.py": "circuit@III",
    "circuit_playground.py": "Two-stage amplifier bias",
    "network_study.py": "Multi-user interference",
}


def run_example(name: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["REPRO_SMOKE"] = "1"
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True, text=True, timeout=300, env=env,
        cwd=REPO_ROOT)


def test_all_examples_are_covered():
    """Every script in examples/ has a smoke test expectation."""
    scripts = {p.name for p in EXAMPLES.glob("*.py")}
    assert scripts == set(EXPECTED_OUTPUT)


@pytest.mark.parametrize("name", sorted(EXPECTED_OUTPUT))
def test_example_smoke(name):
    proc = run_example(name)
    assert proc.returncode == 0, (
        f"{name} failed:\n--- stdout ---\n{proc.stdout}\n"
        f"--- stderr ---\n{proc.stderr}")
    assert EXPECTED_OUTPUT[name] in proc.stdout, (
        f"{name} did not print {EXPECTED_OUTPUT[name]!r}:\n{proc.stdout}")
