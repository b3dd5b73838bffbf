"""Scenarios that share every draw run as one sweep.

Networks over one victim with the same interferer count, seeded alike
and on one budget, draw the same bits and noise chunk for chunk
(``ops.mui_draw_key``).  ``run_ber_sweep`` takes them as a front axis:
each chunk is drawn and its noise band-passed once.  Each front then
synthesizes, combines, band-passes and grades its own rows - unless
the fronts outnumber the trains they are built from (the victim's and
one per interference pattern), and then each train is band-passed once
and every front graded from them.  These tests pin that every member
still counts exactly what its own run counts, that a front graded from
the shared trains matches its own train, that the fronts really share
the draws and the band-pass work, and what the front axis refuses.
"""

import sys
import threading
from concurrent import futures

import numpy as np
import pytest

from repro.experiments.mui_network import (
    interference_network,
    near_far_network,
    run_mui,
)
from repro.link import ops
from repro.link import pipeline as pipe
from repro.link.backends import calibrate
from repro.link.pipeline import (
    CombineStage,
    DecisionStage,
    InterfererPath,
    SignalPipeline,
    run_ber_point,
    run_ber_sweep,
)
from repro.link.spec import LinkSpec
from repro.uwb.adc import decide_slots
from repro.uwb.bpf import BandPassFilter
from repro.uwb.channel.awgn import noise_sigma_for_ebn0
from repro.uwb.config import TEST_CONFIG
from repro.uwb.fastsim import AdaptiveStopping
from repro.uwb.integrator import (
    CircuitSurrogateIntegrator,
    IdealIntegrator,
    TwoPoleIntegrator,
)

VICTIM = LinkSpec(config=TEST_CONFIG)
SEED = 21
GRID = (0.0, 6.0, 12.0)

#: a count sweep's curves beside a near-far point: one interferer
#: each, unequal grids.
MEMBERS = (
    dict(network=interference_network(VICTIM, 1, 0.0), ebn0_grid=GRID,
         label="n1-sir0"),
    dict(network=interference_network(VICTIM, 1, 6.0), ebn0_grid=GRID,
         label="n1-sir6"),
    dict(network=near_far_network(VICTIM, 3.0), ebn0_grid=(12.0,),
         label="nearfar-d3"),
)

BUDGETS = {
    "fixed": dict(target_errors=10**6, max_bits=1_500, min_bits=1_500,
                  chunk_bits=500),
    "adaptive": dict(target_errors=10**6, max_bits=4_000, min_bits=500,
                     chunk_bits=500, adaptive=AdaptiveStopping(
                         rel_half_width=0.3, min_errors=8)),
    # The noisy cells and the hot near-far aggressor reach the target
    # in the first chunk; the 12 dB count-sweep cells keep sampling.
    "target-errors": dict(target_errors=60, max_bits=3_000, min_bits=0,
                          chunk_bits=500),
}


@pytest.fixture(autouse=True)
def threaded_helper(monkeypatch):
    """A helper thread, also on a one-CPU machine."""
    if isinstance(pipe._helper(), futures.ThreadPoolExecutor):
        yield
        return
    helper = futures.ThreadPoolExecutor(max_workers=1)
    monkeypatch.setattr(pipe, "_HELPER", helper)
    monkeypatch.setattr(pipe, "_HELPER_THREAD",
                        helper.submit(threading.get_ident).result())
    yield
    helper.shutdown()


def _grouped(budget):
    return ops.mui_ber_curves([
        dict(member, rng=np.random.default_rng(SEED), **budget)
        for member in MEMBERS])


@pytest.mark.parametrize("budget", list(BUDGETS))
def test_each_member_equals_its_solo_run(budget):
    """Every member's curve equals its own ``mui_ber_curve`` run from
    the same seed, errors and bits alike."""
    rule = BUDGETS[budget]
    grouped = _grouped(rule)
    for member, curve in zip(MEMBERS, grouped):
        solo = ops.mui_ber_curve(member["network"], member["ebn0_grid"],
                                 np.random.default_rng(SEED),
                                 label=member["label"], **rule)
        assert curve.label == solo.label == member["label"]
        assert np.array_equal(curve.ebn0_db, solo.ebn0_db)
        assert np.array_equal(curve.errors, solo.errors), member["label"]
        assert np.array_equal(curve.bits, solo.bits), member["label"]
    if budget == "target-errors":
        # Some members retired chunks before the others.
        done = [int(curve.bits.max()) for curve in grouped]
        assert min(done) < max(done)
        assert grouped[2].bits.tolist() == [500]


def test_without_a_helper_thread_the_group_is_the_same(monkeypatch):
    """With the inline helper every front job runs on the calling
    thread, in front order; the counts do not change."""
    threaded = _grouped(BUDGETS["adaptive"])
    monkeypatch.setattr(pipe, "_HELPER", pipe._Inline())
    monkeypatch.setattr(pipe, "_HELPER_THREAD", None)
    inline = _grouped(BUDGETS["adaptive"])
    for a, b in zip(threaded, inline):
        assert np.array_equal(a.errors, b.errors)
        assert np.array_equal(a.bits, b.bits)


def test_calls_that_draw_differently_are_refused():
    """Calls with another interferer count, budget or generator state
    do not draw alike, so they cannot share a sweep."""
    rule = BUDGETS["fixed"]
    first = dict(MEMBERS[0], rng=np.random.default_rng(SEED), **rule)
    others = {
        "count": dict(first, network=interference_network(VICTIM, 2, 0.0)),
        "budget": dict(first, max_bits=1_000),
        "seed": dict(first, rng=np.random.default_rng(SEED + 1)),
    }
    for other in others.values():
        with pytest.raises(ValueError, match="draw alike"):
            ops.mui_ber_curves([first, other])


def test_draw_key_groups_by_seed_victim_count_and_budget():
    budget = dict(BUDGETS["fixed"], adaptive=None)
    key = ops.mui_draw_key
    one, six = (interference_network(VICTIM, 1, s) for s in (0.0, 6.0))
    assert key(one, 3, budget) == key(six, 3, budget) \
        == key(near_far_network(VICTIM, 3.0), 3, budget)
    assert key(one, 3, budget) != key(one, 4, budget)
    assert key(one, 3, budget) != key(
        interference_network(VICTIM, 2, 0.0), 3, budget)
    assert key(one, 3, budget) != key(one, 3, dict(budget, max_bits=9))
    assert key(one, None, budget) is None


CONFIG = TEST_CONFIG
CACHE = calibrate(LinkSpec(config=CONFIG))
SIGMAS = np.array([noise_sigma_for_ebn0(CACHE.eb, e, CONFIG.fs)
                   for e in (0.0, 4.0, 8.0)])
SWEEP = dict(target_errors=10**6, max_bits=1_000, min_bits=1_000,
             chunk_bits=250)


def _fronts(link_front, amplitudes, offsets=None):
    """One front per interferer amplitude (at offset 37 unless
    *offsets* says otherwise), sharing every stage but the Combine
    stage."""
    offsets = offsets or (37,) * len(amplitudes)
    base = link_front(CONFIG, CACHE.bpf,
                      interferers=(InterfererPath(amplitudes[0], 37),))
    tx, channel, _combine, afe = base.stages
    return [SignalPipeline(stages=(
        tx, channel,
        CombineStage(CONFIG, (InterfererPath(amplitude, offset),)), afe))
        for amplitude, offset in zip(amplitudes, offsets)]


def test_nonlinear_fronts_grade_like_their_solo_sweeps(link_front,
                                                       monkeypatch):
    """Three fronts with their own grids, the circuit decider's rows
    included: each cell equals its 1x1 sweep, the generator ends where
    the serial program leaves it, and no job is queued from the helper
    thread (its jobs grade their rows themselves).  The fronts differ
    in their interferer's gain alone, so they grade from two shared
    trains, the circuit decider from each front's signal rebuilt from
    them."""
    fronts = _fronts(link_front, (0.3, 0.6, 1.0))
    grids = [SIGMAS, SIGMAS[:1], SIGMAS[1:]]
    deciders = (DecisionStage(CONFIG, IdealIntegrator()),
                DecisionStage(CONFIG, CircuitSurrogateIntegrator()))
    helper = pipe._helper()
    submitters = []
    submit = helper.submit

    def recording(*args, **kwargs):
        submitters.append(threading.get_ident())
        return submit(*args, **kwargs)

    monkeypatch.setattr(helper, "submit", recording)
    rng = np.random.default_rng(SEED)
    counts = run_ber_sweep(fronts, deciders, grids, rng, **SWEEP)
    assert submitters and pipe._HELPER_THREAD not in submitters
    serial = np.random.default_rng(SEED)
    for _ in range(4):
        fronts[0].draw(250, serial)
    assert rng.bit_generator.state == serial.bit_generator.state
    for front, grid, (errors, bits) in zip(fronts, grids, counts):
        assert errors.shape == bits.shape == (2, len(grid))
        for k, decider in enumerate(deciders):
            for j, sigma in enumerate(grid):
                cell = run_ber_point(front, decider, sigma,
                                     np.random.default_rng(SEED), **SWEEP)
                assert cell == (errors[k, j], bits[k, j]), (k, j)


def _check_jobs_under_frequent_switches(link_front, monkeypatch,
                                        offsets=None):
    """Eight fronts' jobs pulled by both threads while the interpreter
    switches threads as often as it can: a job run twice or lost shows
    as a bit count off the budget or a count off the inline sweep's."""
    fronts = _fronts(link_front, np.linspace(0.2, 1.6, 8), offsets)
    decider = DecisionStage(CONFIG, IdealIntegrator())
    grids = [SIGMAS] * len(fronts)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = run_ber_sweep(fronts, [decider], grids,
                                 np.random.default_rng(SEED), **SWEEP)
    finally:
        sys.setswitchinterval(interval)
    monkeypatch.setattr(pipe, "_HELPER", pipe._Inline())
    monkeypatch.setattr(pipe, "_HELPER_THREAD", None)
    inline = run_ber_sweep(fronts, [decider], grids,
                           np.random.default_rng(SEED), **SWEEP)
    for (errors, bits), (want_errors, want_bits) in zip(threaded, inline):
        assert (bits == SWEEP["max_bits"]).all()
        assert np.array_equal(errors, want_errors)
        assert np.array_equal(bits, want_bits)


def test_each_front_job_runs_once_under_frequent_switches(link_front,
                                                          monkeypatch):
    """Each front at an offset of its own: one job per front."""
    _check_jobs_under_frequent_switches(link_front, monkeypatch,
                                        tuple(range(30, 38)))


def test_each_pattern_job_runs_once_under_frequent_switches(link_front,
                                                            monkeypatch):
    """The fronts share one offset: one job per interference pattern,
    grading every front built from it."""
    _check_jobs_under_frequent_switches(link_front, monkeypatch)


#: run_mui's one-interferer group: the count sweep's two curves share
#: one offset, the four near-far points another - six fronts built from
#: three trains.
N1_GROUP = ([interference_network(VICTIM, 1, sir) for sir in (0.0, 6.0)]
            + [near_far_network(VICTIM, d) for d in (3.0, 6.0, 9.9, 15.0)])


@pytest.mark.parametrize("helper", ["thread", "inline"])
def test_shared_trains_grade_like_each_fronts_own(helper, monkeypatch):
    """Each front of the one-interferer group, graded from the chunk's
    shared trains, has the slot values its own combined train gives to
    1e-12 relative (the linear-model tolerance of
    ``test_pipeline_parity.py``), and the same decisions - for the
    ideal and the two-pole decider, with the helper thread and
    inline."""
    if helper == "inline":
        monkeypatch.setattr(pipe, "_HELPER", pipe._Inline())
        monkeypatch.setattr(pipe, "_HELPER_THREAD", None)
    fronts, sigmas = ops._fronts(VICTIM, N1_GROUP, [GRID] * len(N1_GROUP))
    deciders = (DecisionStage(CONFIG, IdealIntegrator()),
                DecisionStage(CONFIG, TwoPoleIntegrator()))
    graded = []
    decide = pipe._Components.decide

    def checking(self, f, pattern, k, decider, s, bb):
        decisions = decide(self, f, pattern, k, decider, s, bb)
        shared = pipe._linear_values(*self.reductions(f, pattern, k, bb),
                                     s)
        own = decider.slot_values(
            pipe._synthesize(fronts[f], self.drawn).signal, self.noise, s)
        graded.append((shared, own, decisions))
        return decisions

    monkeypatch.setattr(pipe._Components, "decide", checking)
    run_ber_sweep(fronts, deciders, sigmas, np.random.default_rng(SEED),
                  **SWEEP)
    chunks = SWEEP["max_bits"] // SWEEP["chunk_bits"]
    assert len(graded) == chunks * len(fronts) * len(deciders)
    for shared, own, decisions in graded:
        np.testing.assert_allclose(shared, own, rtol=1e-12, atol=0)
        assert np.array_equal(decisions, decide_slots(own)[1])


def test_front_axis_refuses_fronts_that_cannot_share(link_front):
    decider = DecisionStage(CONFIG, IdealIntegrator())
    rng = np.random.default_rng(0)
    fronts = _fronts(link_front, (0.5, 1.0))
    with pytest.raises(ValueError, match="2 fronts need 2"):
        run_ber_sweep(fronts, [decider], [SIGMAS], rng, **SWEEP)
    own_afe = [fronts[0], link_front(CONFIG, CACHE.bpf, interferers=(
        InterfererPath(1.0, 37),))]
    with pytest.raises(ValueError, match="share their AnalogFrontEnd"):
        run_ber_sweep(own_afe, [decider], [SIGMAS] * 2, rng, **SWEEP)
    tx, channel, _combine, afe = fronts[0].stages
    no_interferer = SignalPipeline(stages=(tx, channel,
                                           CombineStage(CONFIG), afe))
    with pytest.raises(ValueError, match="same number of interferers"):
        run_ber_sweep([fronts[0], no_interferer], [decider],
                      [SIGMAS] * 2, rng, **SWEEP)
    assert run_ber_sweep([], [decider], [], rng, **SWEEP) == []


#: a small fixed-budget study: n0 | n1-sir0, n1-sir6 and both near-far
#: points | n2-sir0, n2-sir6 - seven scenarios in three groups, two
#: chunks each.
STUDY = dict(victim=VICTIM, ebn0_grid=(8.0, 14.0), counts=(0, 1, 2),
             sir_grid=(0.0, 6.0), near_far_distances=(3.0, 9.9),
             near_far_ebn0=12.0, seed=5, chunk_bits=200,
             budget=dict(target_errors=10**6, max_bits=400,
                         min_bits=400))
GROUPS, CHUNKS = 3, 2


def _cells(mui):
    curves = {**mui.curves,
              **{f"d{d:g}": c for d, c in mui.near_far.items()}}
    return sorted((name, c.errors.tolist(), c.bits.tolist())
                  for name, c in curves.items())


def test_run_mui_draws_each_chunk_once_per_group(monkeypatch):
    """The work pins: a study draws (groups x chunks) noise vectors,
    not (scenarios x chunks), and band-passes each chunk's noise once
    and each train it grades once - one per front, but three (the
    victim's and two patterns') for the one-interferer group's four
    fronts: 6 noise and 2 + 6 + 4 clean passes, not 2 + 8 + 4.  A
    change that splits a group, or band-passes a train per front,
    fails here whatever the machine's speed."""
    draws, passes = [], []
    draw_noise = SignalPipeline.draw_noise
    band_pass = BandPassFilter.__call__

    def counting(self, n, rng):
        draws.append(n)
        return draw_noise(self, n, rng)

    def filtering(self, x, **kwargs):
        passes.append(len(x))
        return band_pass(self, x, **kwargs)

    monkeypatch.setattr(SignalPipeline, "draw_noise", counting)
    monkeypatch.setattr(BandPassFilter, "__call__", filtering)
    mui = run_mui(**STUDY)
    assert len(mui.curves) + len(mui.near_far) == 7
    assert len(draws) == GROUPS * CHUNKS
    assert len(passes) == 18


def test_pooled_run_mui_runs_each_group_as_one_task(monkeypatch):
    """``run_mui(processes=2)`` submits one pool task per group and
    equals the serial run."""
    serial = run_mui(**STUDY)
    tasks = []
    submit = futures.ProcessPoolExecutor.submit

    def counting(self, fn, *args, **kwargs):
        tasks.append(args)
        return submit(self, fn, *args, **kwargs)

    monkeypatch.setattr(futures.ProcessPoolExecutor, "submit", counting)
    pooled = run_mui(processes=2, **STUDY)
    assert len(tasks) == GROUPS
    assert _cells(pooled) == _cells(serial)
