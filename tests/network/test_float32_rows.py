"""The nonlinear decider's float32 rows and the screen in front of them.

``DecisionStage.slot_values`` grades a nonlinear (circuit surrogate)
model one row per noise scale: fan-out, square and soft limiter in
float32, window sum in float64.  ``DecisionStage.decide`` decides a
(row, symbol) pair from its linear two-pole values wherever the
limiter's deficit bound and the float32 rounding allowance cannot flip
the decision, and grades full rows for the rest only.  These tests
judge the rows against the float64 row loop they replaced (kept
verbatim below), the screen against the full rows and its own closed
form, pin the memory one decision takes and the windows a fig6 run
grades in full, and pin that a one-row grading never involves the
helper thread.
"""

import contextlib
import io
import tracemalloc

import numpy as np
import pytest
from test_pipeline_parity import FLOAT32_ROW_RTOL

from repro.campaign.cli import main
from repro.experiments.fig6_ber import BER_DRIVE, WIDE_FRONT_END
from repro.link import pipeline as pipe
from repro.link.backends import build_integrator, calibrate
from repro.link.spec import FrontEndSpec, LinkSpec
from repro.uwb.adc import AutoRangingAdc, decide_slots
from repro.uwb.channel.awgn import noise_sigma_for_ebn0
from repro.uwb.config import UwbConfig
from repro.uwb.integrator import (CircuitSurrogateIntegrator, SoftLimiter,
                                  TabulatedNonlinearity)

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
    values = decider.slot_values(signal, noise, sigmas)
    decisions = decider.decide(signal, noise, sigmas)
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
    batch = decider.slot_values(signal, noise, sigmas)
    monkeypatch.setattr(pipe, "_helper", _NoHelper)
    alone = decider.slot_values(signal, noise, sigmas[index])
    assert np.array_equal(alone, batch[index])
    assert np.array_equal(decider.decide(signal, noise, sigmas[index]),
                          decide_slots(batch[index])[1])
    with pytest.raises(AssertionError, match="helper"):
        decider.slot_values(signal, noise, sigmas[3:5])


#: ``tracemalloc`` peak (bytes) of one one-row circuit decision on the
#: 1,000-symbol fig6 chunk, recorded with NumPy 2.4.  The screen
#: leaves 166 of the 0-dB row's symbols: gathering their noise holds
#: the float64 gather (425 kB) beside the float32 signal and noise
#: windows (212 kB each).  Before the screen the row cast the whole
#: chunk: 3,939,668.
ONE_ROW_PEAK = 857_288
#: Same for all eight fig6 rows: the rows the screen leaves are graded
#: one after another on the calling thread, so the 0-dB row's gather
#: sets this peak too.  Before the screen, with two threads each
#: holding a chunk-sized row: 5,334,280.
EIGHT_ROW_PEAK = 871_112
#: Tolerance of both pins: a fifth of one chunk-sized float32 row, so
#: an extra row-sized buffer (a float64 row, a fresh limiter output, a
#: whole-chunk cast) fails.
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
    decider.decide(signal, noise, sigmas)  # warm: weights memoized
    one = _decide_peak(decider, signal, noise, sigmas[:1])
    assert abs(one - ONE_ROW_PEAK) <= PEAK_TOLERANCE, one
    eight = _decide_peak(decider, signal, noise, sigmas)
    assert eight <= EIGHT_ROW_PEAK + PEAK_TOLERANCE, eight


def test_screened_decisions_equal_the_full_rows(chunk):
    """Every decision the screen makes, at each of the 8 fig6 points,
    is the full float32 row path's, graded together or row by row."""
    decider, signal, noise, sigmas = chunk
    full = decide_slots(decider.slot_values(signal, noise, sigmas))[1]
    assert np.array_equal(decider.decide(signal, noise, sigmas), full)
    for i, sigma in enumerate(sigmas):
        assert np.array_equal(decider.decide(signal, noise, sigma),
                              full[i])


def test_gathered_windows_match_the_full_batch(chunk):
    """The windows the screen leaves, gathered and graded, have the
    slot values of the full batch bit for bit; every fig6 point leaves
    some, fewer as Eb/N0 rises."""
    decider, signal, noise, sigmas = chunk
    bound = decider.integrator.deficit_bound(signal.shape[-1],
                                             decider.config.dt)
    _, unresolved = pipe._screen(signal, noise, sigmas, *bound)
    counts = unresolved.sum(axis=-1)
    assert np.all(counts > 0) and counts[0] > counts[-1], counts
    full = decider.slot_values(signal, noise, sigmas)
    for i in np.ndindex(sigmas.shape):
        symbols = np.flatnonzero(unresolved[i])
        values = decider._gathered_values(signal, noise, sigmas[i],
                                          symbols)
        assert np.array_equal(values, full[i][symbols])


def _planted_threshold(weights, deficit, spread, spike, decision):
    """The spike scale ``k`` at which a symbol with *spread* in slot
    0 and ``k * spike`` in slot 1 (no noise) enters the screen for
    *decision*, from the closed form of ``DecisionStage``'s docstring:
    ``|L1 - L0| = B + A0 + A1``, ``B`` of the slot with the larger
    ``L``."""
    l0 = spread ** 2 @ weights
    # The allowance A = 11u L + 9u P + 2^-146 (1 + sigma) sum g, stated
    # here on its own so that a screen with another one fails.
    u = 2.0 ** -24
    tiny = 2.0 ** -146 * weights.sum()

    def resolved(k):
        l1 = k * k * (spike ** 2 @ weights)
        winner, peak = (l1, k * np.abs(spike).max()) if decision else \
            (l0, np.abs(spread).max())
        limiter = deficit * peak ** 4 * winner
        # sigma = 0: P = L.
        allow = (11 * u + 9 * u) * (l0 + l1) + 2 * tiny
        return abs(l1 - l0) > limiter + allow

    # Bisect from a resolved scale towards equal energies (k = 1,
    # unresolved): the upper edge of decision 0's screen, the lower
    # edge of decision 1's.
    inside, outside = (1.2 if decision else 0.0), 1.0
    assert resolved(inside) and not resolved(outside)
    for _ in range(200):
        mid = 0.5 * (inside + outside)
        if resolved(mid):
            inside = mid
        else:
            outside = mid
    return inside


def test_planted_symbols_at_the_screen_edge():
    """Symbols planted a relative 1e-9 in scale inside the screen are
    decided from their linear values; those just outside are graded in
    full.  The step is far below the rounding allowance (about 1.2e-6
    of ``L0 + L1``), so a screen that dropped or mis-sized the
    allowance moves the edge past them.  A fifth symbol, whose linear
    values order the slots the other way round from the limited ones,
    must be left to the full row too."""
    decider = pipe.DecisionStage(SPEC.config,
                                 CircuitSurrogateIntegrator())
    m = SPEC.config.samples_per_slot
    weights, deficit = decider.integrator.deficit_bound(
        m, SPEC.config.dt)
    # A flat slot against a peaked one of about the same energy: the
    # limiter squeezes the peak, so their order is not the linear one
    # everywhere near the edge.
    spread = np.full(m, 0.1)
    t = np.arange(m)
    spike = 0.25 * np.exp(-0.5 * ((t - 100) / 24.0) ** 2)
    spike *= np.sqrt((spread ** 2 @ weights) / (spike ** 2 @ weights))
    scales = []
    for decision in (0, 1):
        edge = _planted_threshold(weights, deficit, spread, spike,
                                  decision)
        inside, outside = (1 - 1e-9, 1 + 1e-9) if decision == 0 else \
            (1 + 1e-9, 1 - 1e-9)
        scales += [edge * inside, edge * outside]
    # L1 > L0, but the limiter squeezes the peaked slot below the flat
    # one.
    scales.append(1.005)
    signal = np.empty((len(scales), 2, m))
    signal[:, 0] = spread
    signal[:, 1] = np.multiply.outer(scales, spike)
    noise = np.zeros_like(signal)
    sigmas = np.zeros(1)
    _, unresolved = pipe._screen(signal, noise, sigmas, weights, deficit)
    assert unresolved.tolist() == [[False, True, False, True, True]]
    full = pipe._FULL_WINDOWS.value
    decisions = decider.decide(signal, noise, sigmas)
    # The three symbols outside, both slots each.
    assert pipe._FULL_WINDOWS.value - full == 6
    assert decisions[0, [0, 2, 4]].tolist() == [0, 1, 0]
    assert np.array_equal(decisions, decide_slots(
        decider.slot_values(signal, noise, sigmas))[1])


@pytest.mark.parametrize("model", ["adc", "tabulated"])
def test_unscreened_deciders_grade_every_window(chunk, model):
    """A converter, or a nonlinearity without a deficit bound, turns
    the screen off: every window is graded in full, as before it."""
    decider, signal, noise, sigmas = chunk
    if model == "adc":
        unscreened = pipe.DecisionStage(decider.config,
                                        decider.integrator,
                                        adc=AutoRangingAdc(bits=6))
    else:
        v = np.linspace(0.0, 1.0, 101)
        unscreened = pipe.DecisionStage(
            decider.config, CircuitSurrogateIntegrator(
                input_nonlinearity=TabulatedNonlinearity(
                    v, SoftLimiter(0.1)(v))))
    full = pipe._FULL_WINDOWS.value
    decisions = unscreened.decide(signal, noise, sigmas)
    assert pipe._FULL_WINDOWS.value - full == sigmas.size * len(signal) * 2
    assert np.array_equal(decisions, decide_slots(
        unscreened.slot_values(signal, noise, sigmas),
        unscreened.adc)[1])


@pytest.mark.parametrize("scale", [0.01, 0.1, 3.0])
def test_soft_limiter_deficit_is_bounded(scale):
    """``0 <= v - f(v) <= c v^3``, ``c = 1 / (3 s^2)``, on a dense grid
    of float64 ``v`` up to deep saturation (within float64 rounding of
    ``f``), and the float32 limiter the decider runs stays within the
    screen's ``3u`` (cast, divide, rescale) and 3-ULP ``tanh`` of the
    float64 one, so within ``9u`` of the same bound."""
    limiter = SoftLimiter(scale)
    c = limiter.cubic_deficit()
    assert c == 1.0 / (3.0 * scale ** 2)
    v = scale * np.concatenate([np.geomspace(1e-12, 1e-2, 20_001),
                                np.linspace(1e-2, 50.0, 200_001)])
    f = limiter(v)
    deficit = v - f
    eps = np.finfo(np.float64).eps
    assert np.all(deficit >= -2 * eps * v)
    assert np.all(deficit <= c * v ** 3 + 2 * eps * v)
    v32 = v.astype(np.float32)
    exact = limiter(v32.astype(np.float64))
    f32 = limiter(v32)
    assert f32.dtype == np.float32
    u = 2.0 ** -24
    tiny = 2.0 ** -146
    assert np.all(np.abs(f32 - exact) <= 9 * u * exact + tiny)


def test_float32_tanh_is_within_three_ulp():
    """The ``tanh`` figure the screen's allowance relies on: NumPy's
    float32 ``tanh`` within 3 ULP of the exact value (float64 ``tanh``
    rounded) over a dense grid, subnormals included."""
    x = np.concatenate([np.geomspace(1e-44, 1e-3, 50_001),
                        np.linspace(1e-3, 12.0, 400_001)]).astype(
                            np.float32)
    x = np.concatenate([x, -x])
    got = np.tanh(x)
    exact = np.tanh(x.astype(np.float64))
    ulp = np.spacing(np.abs(exact.astype(np.float32)))
    assert np.all(np.abs(got - exact) <= 3 * ulp)


#: full-row windows of ``repro run fig6 --fast`` (3.7% of the circuit
#: decider's; 32,000 before the screen).
FIG6_FAST_FULL_WINDOWS = 1_192


def test_fig6_fast_full_windows_are_pinned():
    """``repro run fig6 --fast`` grades 64,000 slot windows (two
    1,000-symbol chunks x 8 points x 2 deciders x 2 slots), and the
    screen leaves exactly this many of the circuit decider's 32,000 to
    full float32 rows: a deterministic count, so a screen that loosens
    (or a path that grades every row again) fails at once."""
    full, windows = pipe._FULL_WINDOWS.value, pipe._WINDOWS.value
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["run", "fig6", "--fast", "--no-cache"]) == 0
    assert pipe._WINDOWS.value - windows == 64_000
    assert pipe._FULL_WINDOWS.value - full == FIG6_FAST_FULL_WINDOWS
