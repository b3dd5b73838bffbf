"""The pipeline's helper thread: fork safety and joins on failure.

A chunk overlaps its noise draw and noise band-pass (helper thread)
with the clean waveform's synthesis and band-pass (calling thread).
These tests pin the two ways that could go wrong: a forked worker
inheriting a helper whose thread does not exist, and a failing stage
returning while the helper still draws from the chunk's generator.
"""

import os
import signal
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.link import (
    DecisionStage,
    LinkSpec,
    calibrate,
    run_ber_sweep,
)
from repro.obs import trace
from repro.uwb.config import UwbConfig
from repro.uwb.integrator import CircuitSurrogateIntegrator
from repro.uwb.modulation import random_bits

SRC = Path(__file__).resolve().parents[2] / "src"

#: a serial sweep in the parent starts its helper thread; the pool
#: workers forked afterwards must make their own.
FORK_SCRIPT = textwrap.dedent("""
    from repro.experiments.mui_network import run_mui

    budget = dict(target_errors=10**6, max_bits=400, min_bits=400)

    def cells(mui):
        curves = {**mui.curves,
                  **{f"d{d:g}": c for d, c in mui.near_far.items()}}
        return sorted((name, c.errors.tolist(), c.bits.tolist())
                      for name, c in curves.items())

    serial = run_mui(seed=3, budget=budget, chunk_bits=200)
    pooled = run_mui(seed=3, budget=budget, chunk_bits=200, processes=2)
    print("same" if cells(serial) == cells(pooled) else "differ")
""")


def test_pool_after_a_sweep_matches_serial():
    """``run_mui(processes=2)`` after a sweep in the same process
    finishes (a non-fork-safe helper hangs its workers) and equals
    the serial run."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
    proc = subprocess.Popen([sys.executable, "-c", FORK_SCRIPT], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        # Take the hung pool workers down with the script.
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("run_mui(processes=2) hung after a serial sweep")
    assert proc.returncode == 0, err
    assert out.split() == ["same"]


CONFIG = UwbConfig()
#: long enough that the noise draw is still running when the front end
#: right after the combine raises.
N = 4000


def _serial_draws(seed: int) -> np.random.Generator:
    """The chunk's draws, made serially: victim bits, then the noise."""
    rng = np.random.default_rng(seed)
    random_bits(N, rng)
    rng.standard_normal(N * CONFIG.samples_per_symbol)
    return rng


def _failing_on(thread_is_main, exc):
    """The front's band-pass, raising *exc* on the calling (main) or
    the helper thread."""
    bpf = calibrate(LinkSpec(config=CONFIG)).bpf

    def band_pass(x):
        if (threading.current_thread() is threading.main_thread()) \
                == thread_is_main:
            raise exc
        return bpf(x)

    return band_pass


def test_failing_stage_returns_after_the_noise_draw(link_front):
    """The front end raising on the calling thread re-raises only once
    the helper's noise draw is done: the generator is where a serial
    chunk leaves it."""
    pipeline = link_front(CONFIG, _failing_on(True, RuntimeError("boom")))
    rng = np.random.default_rng(9)
    with pytest.raises(RuntimeError, match="boom"):
        pipeline.run_chunk(N, rng)
    assert rng.bit_generator.state == _serial_draws(9).bit_generator.state


def test_helper_failure_is_reraised(link_front):
    """A failure on the helper thread (here: the noise band-pass)
    reaches the caller, after the draw finished."""
    pipeline = link_front(
        CONFIG, _failing_on(False, FloatingPointError("helper")))
    rng = np.random.default_rng(9)
    with pytest.raises(FloatingPointError, match="helper"):
        pipeline.run_chunk(N, rng)
    assert rng.bit_generator.state == _serial_draws(9).bit_generator.state


def test_traced_chunk_shows_the_waits_beside_its_stages(link_front):
    """The calling thread's joins (front end and decision rows) trace
    as ``link.wait`` next to the stage spans, which stay leaves."""
    front = link_front(CONFIG, calibrate(LinkSpec(config=CONFIG)).bpf)
    decider = DecisionStage(CONFIG, CircuitSurrogateIntegrator())
    try:
        with trace.collect("chunk") as root:
            run_ber_sweep(front, [decider], np.array([0.1, 0.2, 0.3]),
                          np.random.default_rng(2), max_bits=100,
                          min_bits=0, chunk_bits=100)
    finally:
        trace.reset()
    walls = root.leaf_walls()
    assert set(walls) == {"link.prime", "link.tx", "link.channel",
                          "link.combine", "link.afe", "link.wait",
                          "link.decision"}
    assert root.children["link.wait"].count == 2
    assert sum(walls.values()) <= root.total_s
