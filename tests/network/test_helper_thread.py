"""The pipeline's helper thread: fork safety, the generator's final
state however a sweep stops, and shared decision rows.

``run_ber_sweep`` draws chunk ``k + 1``'s bits and has the helper draw
and band-pass its noise while the calling thread synthesizes and
grades chunk ``k``, and an unscreened nonlinear decider's rows are
pulled by both threads.  These tests pin what could go wrong: a forked
worker inheriting a helper whose thread does not exist, or a pool
worker given a helper thread its siblings leave no core for; a sweep that
stops or raises with a look-ahead chunk drawn and leaves the generator
anywhere but where the serial program leaves it; a shared row graded
twice, never, or differently; and a join of the helper that a trace
does not show.
"""

import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time
from concurrent import futures
from pathlib import Path

import numpy as np
import pytest

from repro.link import pipeline as pipe
from repro.link.backends import calibrate
from repro.link.pipeline import (
    DecisionStage,
    InterfererPath,
    run_ber_point,
    run_ber_sweep,
)
from repro.link.spec import LinkSpec
from repro.obs import trace
from repro.uwb.channel.awgn import noise_sigma_for_ebn0
from repro.uwb.config import TEST_CONFIG
from repro.uwb.fastsim import AdaptiveStopping
from repro.uwb.integrator import (
    CircuitSurrogateIntegrator,
    IdealIntegrator,
    SoftLimiter,
    TabulatedNonlinearity,
)
from repro.uwb.modulation import random_bits

SRC = Path(__file__).resolve().parents[2] / "src"


@pytest.fixture(autouse=True)
def threaded_helper(monkeypatch):
    """These tests need a helper thread, also on a one-CPU machine."""
    if isinstance(pipe._helper(), futures.ThreadPoolExecutor):
        yield
        return
    helper = futures.ThreadPoolExecutor(max_workers=1)
    monkeypatch.setattr(pipe, "_HELPER", helper)
    monkeypatch.setattr(pipe, "_HELPER_THREAD",
                        helper.submit(threading.get_ident).result())
    yield
    helper.shutdown()

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


def test_no_helper_thread_without_a_spare_core(monkeypatch):
    """A pool worker, or a process limited to one CPU, gets no helper
    thread; a process free to use two CPUs does."""
    pool = futures.ProcessPoolExecutor(
        max_workers=1, mp_context=multiprocessing.get_context("spawn"))
    with pool:
        assert pool.submit(pipe._spare_core).result(timeout=120) is False
    if hasattr(os, "sched_getaffinity"):
        monkeypatch.setattr(os, "sched_getaffinity", lambda _pid: {0})
        assert not pipe._spare_core()
        monkeypatch.setattr(os, "sched_getaffinity", lambda _pid: {0, 1})
        assert pipe._spare_core()


CONFIG = TEST_CONFIG
CACHE = calibrate(LinkSpec(config=CONFIG))
#: one channel-free interferer, so the replay covers its bit draws.
PATHS = (InterfererPath(amplitude=0.5, offset_samples=37),)
#: noisy enough that 60 errors come within the first chunk.
SIGMAS = np.array([noise_sigma_for_ebn0(CACHE.eb, e, CONFIG.fs)
                   for e in (0.0, 3.0, 6.0)])
CHUNK = 500
SEED = 9


def _serial_state(chunks: int, seed: int = SEED) -> dict:
    """The generator's state after *chunks* chunks drawn serially:
    victim bits, the interferer's bits, then the unit noise."""
    rng = np.random.default_rng(seed)
    for _ in range(chunks):
        random_bits(CHUNK, rng)
        random_bits(CHUNK, rng)
        rng.standard_normal(CHUNK * CONFIG.samples_per_symbol)
    return rng.bit_generator.state


def _deciders():
    return (DecisionStage(CONFIG, IdealIntegrator()),
            DecisionStage(CONFIG, CircuitSurrogateIntegrator()))


class _FailOn:
    """Raises *exc* from its *at*-th call on the calling (main) or the
    helper thread, counting calls (0-based) on that thread only."""

    def __init__(self, at: int, exc: BaseException, main: bool = True):
        self.at, self.exc, self.main, self.calls = at, exc, main, 0

    def __call__(self) -> None:
        if (threading.current_thread() is threading.main_thread()) \
                != self.main:
            return
        self.calls += 1
        if self.calls > self.at:
            raise self.exc


class _Stage:
    """A no-op stage calling *hook* once per chunk."""

    span_name = "test.stage"

    def __init__(self, hook):
        self.hook = hook

    def process(self, _state) -> None:
        self.hook()


def _band_pass(hook):
    """The front's band-pass, calling *hook* first on every call."""
    def band_pass(x, overwrite_x=False):
        hook()
        return CACHE.bpf(x, overwrite_x=overwrite_x)
    return band_pass


def _front(link_front, bpf=CACHE.bpf, hook=None):
    front = link_front(CONFIG, bpf, interferers=PATHS)
    if hook is not None:
        # Between Combine and the front end: the stage order is kept.
        front.stages = front.stages[:3] + (_Stage(hook),) + front.stages[3:]
    return front


#: three chunks, unless a rule below stops the sweep earlier.
BUDGET = dict(target_errors=10**6, max_bits=3 * CHUNK, min_bits=3 * CHUNK,
              chunk_bits=CHUNK)


def _sweep(front, rng, deciders=None, **rule):
    ((errors, bits),) = run_ber_sweep([front], deciders or _deciders(),
                                      [SIGMAS], rng, **{**BUDGET, **rule})
    return errors, bits


#: stopping rules, and how many chunks each draws before it stops.
STOPS = {
    "fixed-budget": (dict(), 3),
    # The first chunk meets the target while the second is drawn.
    "target-errors": (dict(target_errors=60, min_bits=0), 1),
    "adaptive": (dict(min_bits=CHUNK, adaptive=AdaptiveStopping(
        rel_half_width=0.5, min_errors=8)), 1),
}


@pytest.mark.parametrize("stop", list(STOPS))
def test_generator_ends_where_the_serial_sweep_leaves_it(link_front,
                                                         stop):
    """However the stopping rule ends the sweep, the generator ends
    after exactly the chunks it graded (a look-ahead draw in flight is
    rewound and counted), and every cell counts what its 1x1 sweep
    from the same seed counts."""
    rule, chunks = STOPS[stop]
    front = _front(link_front)
    rng = np.random.default_rng(SEED)
    discarded = pipe._DISCARDED.value
    errors, bits = _sweep(front, rng, **rule)
    assert rng.bit_generator.state == _serial_state(chunks)
    assert bits.max() == chunks * CHUNK
    assert pipe._DISCARDED.value - discarded == (chunks < 3)
    for k, decider in enumerate(_deciders()):
        for j, sigma in enumerate(SIGMAS):
            cell = run_ber_point(front, decider, sigma,
                                 np.random.default_rng(SEED),
                                 **{**BUDGET, **rule})
            assert cell == (errors[k, j], bits[k, j]), (k, j)


@pytest.mark.parametrize("stop", list(STOPS))
def test_without_a_helper_thread_the_sweep_is_the_same(link_front,
                                                       monkeypatch, stop):
    """With the inline helper of a process that has no spare core,
    every job runs on the calling thread, and the counts and the
    generator's final state are those of the threaded sweep."""
    rule, chunks = STOPS[stop]
    threaded = _sweep(_front(link_front), np.random.default_rng(SEED),
                      **rule)
    monkeypatch.setattr(pipe, "_HELPER", pipe._Inline())
    threads = set()
    front = _front(link_front, bpf=_band_pass(
        lambda: threads.add(threading.get_ident())))
    rng = np.random.default_rng(SEED)
    errors, bits = _sweep(front, rng, **rule)
    assert rng.bit_generator.state == _serial_state(chunks)
    assert np.array_equal(errors, threaded[0])
    assert np.array_equal(bits, threaded[1])
    assert threads == {threading.get_ident()}


def _raises_in(link_front, where: str, at: int):
    """``(front, deciders)`` raising in chunk *at* (0-based) in one
    place: a stage or the decider on the calling thread, or the
    helper's noise band-pass."""
    deciders = _deciders()
    if where == "stage":
        return _front(link_front, hook=_FailOn(at, KeyError("stage"))), \
            deciders
    if where == "decide":
        fail = _FailOn(at, KeyError("decide"))
        decide = deciders[1].decide

        def failing(*args):
            fail()
            return decide(*args)

        deciders[1].decide = failing
        return _front(link_front), deciders
    return _front(link_front, bpf=_band_pass(
        _FailOn(at, KeyError("helper"), main=False))), deciders


@pytest.mark.parametrize("at", [0, 1, 2])
@pytest.mark.parametrize("where", ["stage", "decide", "helper"])
def test_a_raising_sweep_leaves_the_serial_generator(link_front, where,
                                                     at):
    """A sweep raising in chunk *at* - in a stage or the decider on
    the calling thread, or in the helper's noise band-pass - re-raises
    once the helper is idle, with the generator after exactly the
    chunks drawn up to and including *at*."""
    front, deciders = _raises_in(link_front, where, at)
    rng = np.random.default_rng(SEED)
    with pytest.raises(KeyError, match=where):
        _sweep(front, rng, deciders)
    assert rng.bit_generator.state == _serial_state(at + 1)


def test_a_discarded_draw_takes_its_failure_with_it(link_front):
    """The look-ahead chunk's band-pass failing does not matter when
    the sweep stops before that chunk: the sweep returns, rewound."""
    front = _front(link_front, bpf=_band_pass(
        _FailOn(1, KeyError("helper"), main=False)))
    rng = np.random.default_rng(SEED)
    _sweep(front, rng, target_errors=60, min_bits=0)
    assert rng.bit_generator.state == _serial_state(1)


def test_failing_stage_returns_after_the_noise_draw(link_front):
    """The front end raising on the calling thread re-raises only once
    the helper's noise draw is done: the generator is where a serial
    chunk leaves it."""
    front = _front(link_front, bpf=_band_pass(
        _FailOn(0, RuntimeError("boom"))))
    rng = np.random.default_rng(SEED)
    with pytest.raises(RuntimeError, match="boom"):
        _sweep(front, rng)
    assert rng.bit_generator.state == _serial_state(1)


def test_helper_failure_is_reraised(link_front):
    """A failure on the helper thread (here: the noise band-pass)
    reaches the caller, after the draw finished."""
    front = _front(link_front, bpf=_band_pass(
        _FailOn(0, FloatingPointError("helper"), main=False)))
    rng = np.random.default_rng(SEED)
    with pytest.raises(FloatingPointError, match="helper"):
        _sweep(front, rng)
    assert rng.bit_generator.state == _serial_state(1)


class _SlowRows:
    """A nonlinear model grading like the circuit surrogate, slowly
    enough that both threads take rows, recording each call."""

    def __init__(self):
        self.model = CircuitSurrogateIntegrator()
        self.threads: list[int] = []

    def window_outputs(self, x, dt, overwrite_x=False):
        self.threads.append(threading.get_ident())
        time.sleep(0.002)
        return self.model.window_outputs(x, dt, overwrite_x=overwrite_x)


@pytest.mark.parametrize("busy", [False, True], ids=["idle", "busy"])
@pytest.mark.parametrize("rows", [1, 2, 3, 8])
def test_shared_rows_grade_like_one_thread(rows, busy):
    """Rows pulled from one iterator by both threads - with the helper
    free, or still busy with earlier work - equal one thread grading
    each row, and every row is graded exactly once."""
    rng = np.random.default_rng(3)
    signal, noise = rng.normal(0.0, 0.05, (2, 37, 2, 64))
    sigmas = np.linspace(0.0, 1.9, rows)
    model = _SlowRows()
    decider = DecisionStage(CONFIG, model)
    alone = np.stack([decider.slot_values(signal, noise, s)
                      for s in sigmas])
    model.threads.clear()
    release = threading.Event()
    blocker = pipe._helper().submit(release.wait, 10) if busy else None
    # Switch threads as often as possible: a row handed out twice, or
    # lost, shows as a wrong call count.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        shared = decider.slot_values(signal, noise, sigmas)
    finally:
        sys.setswitchinterval(interval)
        release.set()
    if blocker is not None:
        assert blocker.result(timeout=10)
    assert np.array_equal(shared, alone)
    assert len(model.threads) == rows
    if busy or rows == 1:
        assert set(model.threads) == {threading.get_ident()}


def _unscreened_circuit() -> CircuitSurrogateIntegrator:
    """The circuit surrogate's limiter as a table: a nonlinearity that
    states no deficit bound, so its decider grades (and shares) every
    row."""
    v = np.linspace(0.0, 1.0, 1001)
    return CircuitSurrogateIntegrator(
        input_nonlinearity=TabulatedNonlinearity(v, SoftLimiter(0.1)(v)))


#: the deciders' models by name: ``circuit`` screens its rows and
#: grades the few it leaves on the calling thread, ``rows`` shares
#: every row with the helper.
MODELS = {"ideal": IdealIntegrator, "circuit": CircuitSurrogateIntegrator,
          "rows": _unscreened_circuit}


def _traced_waits(link_front, model: str, fronts: int = 1,
                  **budget) -> int:
    """``link.wait`` spans in a trace of one sweep over the three
    :data:`SIGMAS` rows of each of *fronts* fronts (sharing every
    stage) in chunks of 100 bits, with the stage spans leaves beside
    them."""
    front = link_front(CONFIG, CACHE.bpf)
    decider = DecisionStage(CONFIG, MODELS[model]())
    try:
        with trace.collect("chunk") as root:
            run_ber_sweep([front] * fronts, [decider], [SIGMAS] * fronts,
                          np.random.default_rng(2), min_bits=0,
                          chunk_bits=100, **budget)
    finally:
        trace.reset()
    walls = root.leaf_walls()
    stages = {"link.prime", "link.tx", "link.channel", "link.combine",
              "link.afe", "link.wait", "link.decision"}
    # With two or more fronts the helper may take any front job, and
    # its spans are in no collected tree.
    assert set(walls) == stages if fronts == 1 else \
        {"link.prime", "link.wait"} <= set(walls) <= stages
    assert sum(walls.values()) <= root.total_s
    return root.children["link.wait"].count


def test_traced_chunk_shows_the_waits_beside_its_stages(link_front):
    """One chunk's joins - its noise, and an unscreened nonlinear
    decider's row job on an idle helper - trace as ``link.wait`` next
    to the stage spans, which stay leaves."""
    assert _traced_waits(link_front, "rows", max_bits=100) == 2


#: (decider, fronts, sweep budget, joins): each chunk joins its noise
#: (the second chunk's drawn one chunk ahead), and either an unscreened
#: nonlinear decider's row job or - with two or more fronts - the
#: helper's share of the front jobs, whether it ran or was cancelled; a
#: look-ahead the stopping rule discards is joined once more.  The
#: screened circuit decider grades the rows it leaves on this thread,
#: so it joins only the noise.  (A front job on this
#: thread shares a nonlinear decider's rows too, and which jobs run
#: here is a race, so the multi-front cases grade linearly.)
WAITS = {
    "two-chunk-ideal": ("ideal", 1, dict(max_bits=200), 2),
    "two-chunk-circuit": ("circuit", 1, dict(max_bits=200), 2),
    "two-chunk-rows": ("rows", 1, dict(max_bits=200), 4),
    "discarded-ideal": ("ideal", 1, dict(max_bits=300, target_errors=1),
                        2),
    "two-chunk-two-fronts": ("ideal", 2, dict(max_bits=200), 4),
    "discarded-three-fronts": ("ideal", 3, dict(max_bits=300,
                                                target_errors=1), 3),
}


@pytest.mark.parametrize("case", list(WAITS))
def test_every_join_of_a_sweep_is_traced(link_front, case):
    """Every join of the calling thread, the look-ahead's included,
    is one ``link.wait``: the count does not depend on how the two
    threads raced."""
    model, fronts, budget, joins = WAITS[case]
    discarded = pipe._DISCARDED.value
    assert _traced_waits(link_front, model, fronts, **budget) == joins
    assert pipe._DISCARDED.value - discarded == case.startswith(
        "discarded")
