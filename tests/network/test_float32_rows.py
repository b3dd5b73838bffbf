"""The nonlinear decider's float32 rows.

``DecisionStage`` grades a nonlinear (circuit surrogate) model one row
per noise scale: fan-out, square and soft limiter in float32, window
sum in float64.  These tests judge that against the float64 row loop
it replaced (kept verbatim below), pin the memory one decision takes,
and pin that a one-row decision never involves the helper thread.
"""

import tracemalloc

import numpy as np
import pytest
from test_pipeline_parity import FLOAT32_ROW_RTOL

from repro.experiments.fig6_ber import BER_DRIVE, WIDE_FRONT_END
from repro.link import pipeline as pipe
from repro.link.backends import build_integrator, calibrate
from repro.link.spec import FrontEndSpec, LinkSpec
from repro.uwb.channel.awgn import noise_sigma_for_ebn0
from repro.uwb.config import UwbConfig

#: the fig6 link, graded by the circuit surrogate.
SPEC = LinkSpec(config=UwbConfig(),
                frontend=FrontEndSpec(band=WIDE_FRONT_END,
                                      squarer_drive=BER_DRIVE),
                integrator="circuit")
GRID = (0.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0)
N = 1_000


def _float64_slot_values(decider, signal, noise, sigmas):
    """Verbatim float64 row loop of the decider before its rows went
    float32 (one thread, same per-row arithmetic)."""
    values = np.empty(sigmas.shape + signal.shape[:-1])
    row = np.empty(signal.shape)
    for i in np.ndindex(sigmas.shape):
        np.multiply(noise, sigmas[i], out=row)
        row += signal
        np.square(row, out=row)
        values[i] = decider.integrator.window_outputs(row,
                                                      decider.config.dt)
    return values


@pytest.fixture(scope="module")
def chunk():
    """``(decider, signal, noise, sigmas)`` of one 1,000-symbol fig6
    chunk at seed 4."""
    cfg = SPEC.config
    cache = calibrate(SPEC)
    front = pipe.SignalPipeline(stages=(
        pipe.TxStage(cfg),
        pipe.ChannelStage(cfg, cache.channel),
        pipe.CombineStage(cfg),
        pipe.AnalogFrontEndStage(cfg, cache.bpf,
                                 BER_DRIVE / cache.peak)))
    rng = np.random.default_rng(4)
    state = front.draw(N, rng, noise=False)
    front.process(state)
    noise = pipe._filtered_noise(front, N, rng)
    sigmas = np.array([noise_sigma_for_ebn0(cache.eb, e, cfg.fs)
                       for e in GRID])
    decider = pipe.DecisionStage(cfg, build_integrator(SPEC))
    return decider, state.signal, noise, sigmas


def test_float32_rows_match_the_float64_loop(chunk):
    """Slot values agree with the float64 loop within
    :data:`FLOAT32_ROW_RTOL`, and a decision may differ only where the
    two slots tie within that bound."""
    decider, signal, noise, sigmas = chunk
    values, decisions = decider.decide(signal, noise, sigmas)
    oracle = _float64_slot_values(decider, signal, noise, sigmas)
    assert values.dtype == np.float64
    np.testing.assert_allclose(values, oracle, rtol=FLOAT32_ROW_RTOL)
    v0, v1 = oracle[..., 0], oracle[..., 1]
    flipped = decisions != (v1 > v0)
    tie = np.abs(v1 - v0) <= FLOAT32_ROW_RTOL * np.maximum(np.abs(v0),
                                                           np.abs(v1))
    assert not np.any(flipped & ~tie)


class _NoHelper:
    def submit(self, *_args, **_kwargs):
        raise AssertionError("one row went to the helper thread")


@pytest.mark.parametrize("index", [3, slice(3, 4)],
                         ids=["scalar", "one-row"])
def test_one_row_grades_on_the_calling_thread(chunk, monkeypatch,
                                              index):
    """A single row (a 1x1 point, or one survivor after retirement)
    submits nothing to the helper, and grades as in the batch."""
    decider, signal, noise, sigmas = chunk
    batch, _ = decider.decide(signal, noise, sigmas)
    monkeypatch.setattr(pipe, "_helper", _NoHelper)
    alone, _ = decider.decide(signal, noise, sigmas[index])
    assert np.array_equal(alone, batch[index])
    with pytest.raises(AssertionError, match="helper"):
        decider.decide(signal, noise, sigmas[3:5])


#: ``tracemalloc`` peak (bytes) of one one-row circuit decision on the
#: 1,000-symbol fig6 chunk, recorded with NumPy 2.4: the float32 casts
#: of signal and noise plus one float32 row, 1.28 MB each, and about
#: 100 kB of window-sum buffers.
ONE_ROW_PEAK = 3_939_668
#: Same for all eight fig6 rows, two threads each holding a row.  A
#: scheduler that runs the helper's rows after the calling thread's
#: can only lower it, so it is an upper bound.
EIGHT_ROW_PEAK = 5_334_280
#: Tolerance of both pins: a fifth of one float32 row, so an extra
#: row-sized buffer (a float64 row, a fresh limiter output) fails.
PEAK_TOLERANCE = 256 * 1024


def _decide_peak(decider, signal, noise, sigmas) -> int:
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        decider.decide(signal, noise, sigmas)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_decide_memory_is_pinned(chunk):
    """The work a circuit decision allocates, in bytes: deterministic,
    so no timing noise can hide a re-added row buffer."""
    decider, signal, noise, sigmas = chunk
    decider.decide(signal, noise, sigmas)  # helper thread started
    one = _decide_peak(decider, signal, noise, sigmas[:1])
    assert abs(one - ONE_ROW_PEAK) <= PEAK_TOLERANCE, one
    eight = _decide_peak(decider, signal, noise, sigmas)
    assert eight <= EIGHT_ROW_PEAK + PEAK_TOLERANCE, eight
