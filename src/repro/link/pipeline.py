"""Staged signal-path pipeline of the golden-model link simulation.

The vectorized BER engine used to be one monolithic loop (the
historic ``repro.uwb.fastsim`` point function): pulse train, channel,
noise, band-pass, squarer, integrator and decision fused into a single
function body.  That shape made the single-transmitter assumption
structural - there was no seam where a second transmitter's waveform
could enter the chunk.  This module is the refactor that opens that
seam: the chunk computation becomes a :class:`SignalPipeline` front of
four stages operating on a :class:`LinkState`, graded by
:func:`run_ber_sweep` through one :class:`DecisionStage` per
integrator variant,

    :class:`TxStage` -> :class:`ChannelStage` -> :class:`CombineStage`
    -> :class:`AnalogFrontEndStage`

with multi-user interference entering at the :class:`CombineStage`,
which adds one pulse train per :class:`InterfererPath` (relative
amplitude, circular timing offset, optional independent channel
realization) before the victim's AWGN is added.

**Draw-order contract.** :meth:`SignalPipeline.draw` is the one place
that fixes the order of a chunk's draws: the victim bits, then each
interferer's bits (in path order), then one unit-variance noise
vector - the draw sequence of the historic monolithic loop, whose
``rng.normal(0, sigma, n)`` is bitwise ``sigma * standard_normal(n)``.
The stages only synthesize from those draws.  Bits, interferers and
the noise process are therefore identical to that loop at every seed.
The decision statistic is not computed in the same order: everything
before the squarer is linear, so the band-pass and drive scaling run
once on the clean waveform (``a``) and once on the unit noise
(``b``), and each noise scale ``sigma`` grades ``a + sigma * b``.
Slot values agree with the filter-per-row loop to about 1e-15
relative, not bit for bit (``tests/network/test_pipeline_parity.py``
compares them with a verbatim copy of that loop, and
``tests/uwb/test_theory.py`` checks the counts against the exact
energy-detection BER of :mod:`repro.uwb.theory`).

**One helper thread, one chunk ahead.** Each process keeps one helper
thread (the kernels involved release the GIL), and
:func:`run_ber_sweep` has it draw and band-pass each chunk's noise one
chunk ahead.  The calling thread draws a chunk's bits itself; the
helper then draws the chunk's unit noise and band-passes and
drive-scales it in place, so a noise job holds one noise vector
(:meth:`BandPassFilter.__call__` with ``overwrite_x``: the block filter
of :mod:`repro.core.iir` streams the vector in cache-sized passes and
writes each pass back over its input, bit-identical to the
out-of-place call).  The first
chunk's noise overlaps its own synthesis.  Every later chunk's bits
are drawn as soon as the chunk before it has its noise, and its noise
job overlaps the synthesis and grading of that chunk; once its draw is
done the helper takes decision rows or front jobs (below).  The
calling thread draws only while the helper has no draw in flight, so
the draw sequence is the serial one.  A sweep that stops - or raises
- with a look-ahead chunk drawn joins (or cancels) its noise job and
rewinds the generator to the state recorded before that chunk's bits
(counted as ``link.draw_ahead.discarded``): the generator ends exactly
where the serial program leaves it, and every count is the serial
count.  A
nonlinear :class:`DecisionStage` grading full rows pulls them from one
shared iterator on both threads - the helper joins in once its noise
job is done; a single row stays on the calling thread - and each row's
arithmetic is the same on either (the circuit surrogate's screen
leaves so few windows that it grades them on the calling thread).  :meth:`SignalPipeline.run_chunk`
draws and synthesizes inline, on the calling thread.  A forked child
makes its own helper.  A process started by :mod:`multiprocessing`
(a pool worker, whose siblings claim the other cores) or limited to
one CPU gets no helper thread: its helper runs each job on
submission, so the same sweep runs serially.  A trace shows every
join of the calling thread - a chunk's noise, a discarded look-ahead,
the helper's decision rows or front jobs - as a ``link.wait`` span,
beside the stage span it interrupts and under a scenario span, whether
the job ran or was cancelled; the helper's own work is in no collected
span tree.

**Scenario batch axis.** One chunk can serve a whole family of
operating points that share every draw and differ only in their noise
scale.  The front (Tx -> Channel -> Combine -> AnalogFrontEnd) never
fans out: it yields one filtered signal/noise pair per chunk, and the
:class:`DecisionStage` owns the scenario axis.  For an integrator that
is linear in its input (ideal, two-pole without an input
nonlinearity) the slot value ``sum g (a + sigma b)^2`` is
``sum g a^2 + 2 sigma sum g a b + sigma^2 sum g b^2``: three weighted
reductions per slot, shared by every row, so no rows x samples array
exists.  A nonlinear integrator builds one row at a time in a
chunk-sized float32 buffer (fan-out, square and input limiter) and
sums each window in float64 against the model's float64 weights; its
slot values agree with float64 rows to about 1e-7 relative.  The
circuit surrogate's decisions rarely need those rows: its limiter
``f(v) = s tanh(v / s)`` takes at most ``v^3 / (3 s^2)`` off each
squared sample, so its slot value lies within ``B = vmax^2 L / (3
s^2)`` below the linear two-pole value ``L``, and a (row, symbol)
pair whose linear margin exceeds ``B`` plus a derived float32
rounding allowance decides from ``L`` (:class:`DecisionStage`).  Only
the remaining windows - about 0.3 of the 8 fig6 rows - are gathered
and graded as float32 rows, each window exactly as in the full row.
Either way row ``i``'s arithmetic depends only on ``sigmas[i]``, so a
row graded alone, in a sub-grid or after other rows retired is
bit-identical to the same row in the full batch - the invariant
:func:`run_ber_sweep` builds the whole-curve sweep on (pinned by
``tests/network/test_batched_sweep.py``).

**Front axis.**  Scenarios that differ only in their interferers'
powers and offsets - same victim, same interferer count, same seed and
budget - draw the same bits and noise chunk for chunk.
:func:`run_ber_sweep` takes such scenarios as a front axis: one
pipeline per scenario, sharing the Tx, Channel and AnalogFrontEnd
stages, each with its own :class:`CombineStage` and its own noise-scale
grid.  Each chunk is drawn, and its noise band-passed, once; then each
front runs one job - synthesize, combine, band-pass its clean signal,
grade its rows - and both threads pull these jobs from one shared
iterator, the way a nonlinear decider's rows are shared.  A job on
the helper grades its rows itself.  Each front's slot values are the
ones its own sweep computes, so every count is bit-identical to that
sweep (``tests/network/test_shared_draws.py``).

Stages are deliberately dependency-light (uwb building blocks only);
:mod:`repro.link.backends` resolves :class:`~repro.link.spec.NetworkSpec`
interference descriptions into :class:`InterfererPath` values (SIR
calibration needs the pilot energies, which live with the builders).
"""

from __future__ import annotations

import multiprocessing
import os
import threading
from concurrent import futures
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.uwb.adc import Adc, AutoRangingAdc, decide_slots
from repro.uwb.bpf import BandPassFilter
from repro.uwb.channel.ieee802154a import ChannelRealization
from repro.uwb.config import UwbConfig
from repro.uwb.fastsim import AdaptiveStopping
from repro.uwb.integrator import WindowIntegrator
from repro.uwb.modulation import ppm_pulse_samples, ppm_waveform, random_bits

#: look-ahead chunks a sweep drew and then did not need.
_DISCARDED = _metrics.REGISTRY.counter("link.draw_ahead.discarded")
#: slot windows the deciders decided, and those of them graded through
#: full nonlinear rows (not by the linear reductions or the screen).
_WINDOWS = _metrics.REGISTRY.counter("link.decision.windows")
_FULL_WINDOWS = _metrics.REGISTRY.counter("link.decision.full_windows")

_HELPER: futures.Executor | None = None
#: identity of the helper's thread (``None`` without one).
_HELPER_THREAD: int | None = None


def _helper() -> futures.Executor:
    """The process's one helper (made on first use): a thread, or - in
    a process with no core to spare for it - :class:`_Inline`."""
    global _HELPER, _HELPER_THREAD
    if _HELPER is None:
        if _spare_core():
            _HELPER = futures.ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="repro-link-helper")
            # The executor starts its thread on the first job: start it
            # now, so a sweep's first chunk does not pay for it.
            _HELPER_THREAD = _HELPER.submit(threading.get_ident).result()
        else:
            _HELPER = _Inline()
    return _HELPER


def _spare_core() -> bool:
    """Can a helper thread run beside the calling thread?  Not in a
    process limited to one CPU, nor in a process started by
    :mod:`multiprocessing` (a pool worker: its siblings claim the other
    cores, and two busy threads per worker cost more CPU than one)."""
    if multiprocessing.parent_process() is not None:
        return False
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) > 1
    return (os.cpu_count() or 1) > 1


class _Inline(futures.Executor):
    """A helper without a thread: each job runs on submission, on the
    calling thread, so every draw and row comes in the serial order."""

    def submit(self, fn, /, *args, **kwargs) -> futures.Future:
        job = futures.Future()
        job.set_running_or_notify_cancel()
        try:
            job.set_result(fn(*args, **kwargs))
        except Exception as exc:
            job.set_exception(exc)
        return job


def _forget_helper() -> None:
    # A forked child inherits the executor but not its thread, so work
    # queued on the inherited one would never run.
    global _HELPER, _HELPER_THREAD
    _HELPER = _HELPER_THREAD = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_helper)


def _join(job: futures.Future, cancel: bool = False) -> bool:
    """Wait for *job* - or, with *cancel*, drop it if it has not
    started - and return whether it ran.  The calling thread's wait is
    traced as ``link.wait`` (see :func:`repro.obs.trace.wait`) either
    way, so a trace shows one wait per join however the two threads
    raced."""
    with _trace.wait("link.wait"):
        if cancel and job.cancel():
            return False
        futures.wait((job,))
        return True


def _result(job: futures.Future):
    """*job*'s result, once joined (re-raises its failure)."""
    _join(job)
    return job.result()


def _shared(work: Callable[[Iterator], None], items: list) -> None:
    """Run ``work(it)`` on this thread and on the helper over one
    shared iterator *it* of *items*, so each item is taken once, by
    whichever thread calls ``next()`` first (one atomic step under the
    GIL).  The helper joins in once its queued work is done.  A single
    item stays on this thread, and so does everything on the helper
    thread itself: a job it queued for itself would wait behind the
    job queuing it."""
    it = iter(items)
    if len(items) <= 1 or threading.get_ident() == _HELPER_THREAD:
        work(it)
        return
    job = _helper().submit(work, it)
    try:
        work(it)
    finally:
        # Still queued (behind a chunk's noise job), the job would find
        # no item left: drop it, else join it.
        helped = _join(job, cancel=True)
    if helped:
        job.result()


@dataclass
class LinkState:
    """Per-chunk state flowing through the pipeline.

    One state is one Monte-Carlo chunk of ``n`` symbols.
    :meth:`SignalPipeline.draw` fills the draws; stages mutate the
    state in place, each consuming the fields of its predecessor:

    Attributes:
        n: symbols in this chunk.
        bits: victim payload bits (drawn; shared across scenario
            rows).
        interferer_bits: each interferer's bits, in path order
            (drawn).
        waveform: clean waveform at the antenna reference plane -
            victim only after :class:`TxStage` and
            :class:`ChannelStage`, victim plus scaled interferers
            after :class:`CombineStage` (the front end band-passes it
            in place into ``signal`` and clears it).
        unit: the chunk's one unit-variance noise vector, as long as
            ``waveform`` (drawn; ``None`` in a sweep, whose helper
            thread draws it and band-passes it in place through
            :func:`_filtered_noise`, one filtered noise per chunk
            shared by its fronts).
        signal: ``waveform`` band-passed and drive-scaled, shaped
            ``(n, 2, samples_per_slot)`` (set by
            :class:`AnalogFrontEndStage`); row ``i`` of a decider
            squares ``signal + sigma_i * noise``, the noise filtered
            the same way.
    """

    n: int
    bits: np.ndarray | None = None
    interferer_bits: tuple[np.ndarray, ...] = ()
    waveform: np.ndarray | None = None
    unit: np.ndarray | None = None
    signal: np.ndarray | None = None


@dataclass(frozen=True)
class InterfererPath:
    """One resolved interfering transmitter, ready to synthesize.

    This is the *execution-level* description (everything calibrated
    to concrete numbers); the declarative description is
    :class:`repro.link.spec.InterfererSpec`, resolved into paths by
    :func:`repro.link.backends.build_interferer_paths`.

    Attributes:
        amplitude: linear amplitude applied to the interferer's unit
            pulse train (after its channel).  SIR calibration happens
            upstream: the amplitude already accounts for both pilots'
            received energies.
        offset_samples: circular timing offset of the interferer's
            waveform within the chunk (``np.roll`` convention: positive
            shifts the interferer later).  Circular shifting keeps the
            chunk statistics stationary - the few symbols wrapping
            around the chunk edge see the tail of the interferer
            stream, which is statistically identical.
        channel: optional multipath realization of the interferer's own
            propagation path (``None`` = ideal link); applied and
            delay-trimmed exactly like the victim's.
    """

    amplitude: float
    offset_samples: int = 0
    channel: ChannelRealization | None = None

    def add_to(self, waveform: np.ndarray, bits: np.ndarray,
               config: UwbConfig) -> None:
        """Add this interferer's scaled, offset pulse train for *bits*
        into *waveform* in place: ``waveform + amplitude *
        roll(train, offset_samples)``, sample for sample.

        Without a channel only the pulse samples are touched (a
        scatter-add at their circularly offset positions), unless the
        pulse supports overlap; a channel realization spreads the
        train, so it is convolved densely.
        """
        total = len(bits) * config.samples_per_symbol
        pulses = None if self.channel is not None else \
            ppm_pulse_samples(bits, config)
        if pulses is not None:
            index, value = pulses
            if self.offset_samples:
                index = (index + self.offset_samples) % total
            waveform[index] += self.amplitude * value
            return
        wave = ppm_waveform(bits, config)
        if self.channel is not None:
            wave = self.channel.received(wave, total)
        if self.offset_samples:
            wave = np.roll(wave, self.offset_samples)
        waveform += self.amplitude * wave


@dataclass
class TxStage:
    """Victim transmitter: synthesize the 2-PPM pulse train of the
    drawn payload bits."""

    config: UwbConfig
    span_name = "link.tx"

    def process(self, state: LinkState) -> None:
        state.waveform = ppm_waveform(state.bits, self.config)


@dataclass
class ChannelStage:
    """Victim propagation: convolve with the realization and trim the
    propagation delay to whole symbols (a no-op on the ideal link)."""

    config: UwbConfig
    channel: ChannelRealization | None = None
    span_name = "link.channel"

    def process(self, state: LinkState) -> None:
        if self.channel is None:
            return
        state.waveform = self.channel.received(
            state.waveform, state.n * self.config.samples_per_symbol)


@dataclass
class CombineStage:
    """Sum interfering transmitters into the victim waveform.

    Each interferer's drawn bits (:attr:`LinkState.interferer_bits`,
    in path order) are synthesized and added in at its calibrated
    amplitude.  With no interferers the victim waveform passes through
    untouched (not even an add of zero).
    """

    config: UwbConfig
    interferers: tuple[InterfererPath, ...] = ()
    span_name = "link.combine"

    def __post_init__(self) -> None:
        self.interferers = tuple(self.interferers)

    def process(self, state: LinkState) -> None:
        for path, path_bits in zip(self.interferers, state.interferer_bits):
            path.add_to(state.waveform, path_bits, self.config)


@dataclass
class AnalogFrontEndStage:
    """Receiver analog front end: band-pass and AGC drive scaling of the
    clean waveform, once per chunk (output reshaped into per-slot
    windows; the squarer runs per noise scale in the
    :class:`DecisionStage`).  The clean waveform is the state's own: it
    is band-passed in place, so the signal takes its memory and
    :attr:`LinkState.waveform` is cleared.  The unit noise never
    reaches this stage: the sweep's helper thread band-passes it in
    place with the same filter and scaling, one chunk ahead
    (:func:`_filtered_noise`, :func:`run_ber_sweep`)."""

    config: UwbConfig
    bpf: BandPassFilter
    scale: float
    span_name = "link.afe"

    def process(self, state: LinkState) -> None:
        state.signal = self._drive(state.waveform, state.n,
                                   overwrite_x=True)
        state.waveform = None

    def _drive(self, x: np.ndarray, n: int, overwrite_x: bool = False
               ) -> np.ndarray:
        # The drive scaling runs in place on the filter output: a fresh
        # array, or *x* itself with *overwrite_x*.
        y = self.bpf(x, overwrite_x=overwrite_x)[
            :n * self.config.samples_per_symbol]
        np.multiply(y, self.scale, out=y)
        return y.reshape(n, 2, self.config.samples_per_slot)


@dataclass
class DecisionStage:
    """Squarer, integrator model per slot, optional ADC, larger-slot
    decision - per noise scale (the scenario axis lives here).

    :meth:`slot_values` grades a linear model from three float64
    reductions per slot.  It grades a nonlinear one (the circuit
    surrogate) row by row in float32 (fan-out, square, input limiter)
    with float64 window sums, so the slot values stay float64; two or
    more rows are pulled from one shared iterator by this thread and
    the helper thread, which joins in once its queued work is done
    (called on the helper thread, it grades every row itself).

    **Screen.**  :meth:`decide` needs the decisions only.  When the
    model states a deficit bound (:meth:`WindowIntegrator.deficit_bound`:
    the circuit surrogate's :class:`~repro.uwb.integrator.SoftLimiter`)
    and there is no converter, it decides a (row, symbol) pair from the
    linear two-pole values wherever the limiter cannot flip the
    decision, and grades full float32 rows only for the rest.  Per
    slot, with weights ``g > 0``, ``y = a + sigma b`` and ``v = y^2``:

    * ``L = sum g v``, from the three float64 reductions of the linear
      path;
    * the exact model value ``S = sum g f(v)`` lies in ``[L - B, L]``,
      ``B = c vmax^2 L`` (``c = 1 / (3 s^2)``, ``vmax = (max|a| + sigma
      max|b|)^2``, the per-slot maxima taken once per call);
    * the float32 row's value ``S~`` and the float64 ``L~`` are within
      ``A`` of ``S`` and ``L`` (the allowance below).

    A pair whose linear margin ``|L1 - L0|`` exceeds ``B`` of the slot
    with the larger ``L`` plus both slots' ``A`` decides as its float32
    row would: that row's slot with the larger ``L`` loses at most
    ``B + A`` and the other gains at most ``A``.  The remaining pairs'
    windows are gathered, row by row on the calling thread, and graded
    like :meth:`slot_values` grades a row (each window's arithmetic is
    the same in any batch, so their values equal the full batch's bit
    for bit), and every decision equals the full float32 path's.

    **Allowance.**  With ``u = 2^-24`` (float32 unit roundoff),
    ``h = |a| + sigma |b|`` and ``gamma_k = k u / (1 - k u)``, the
    float32 row errs, per sample, by at most:

    * casts of ``a``, ``b`` and ``sigma``, the product and the fan-out
      add: ``|y~ - y| <= gamma_4 h`` - absolute, since ``a + sigma b``
      may cancel;
    * the square: ``u v + (1 + u)(2 gamma_4 h |y| + gamma_4^2 h^2)``;
    * the limiter: ``f`` has slope at most 1 in ``v`` and relative
      sensitivity below 1 to ``s``, so the cast of ``s``, the divide
      and the rescale add ``3u`` of ``f(v)``, and NumPy's float32
      ``tanh`` (validated to 2 ULP by NumPy's own accuracy tests; 3 ULP
      assumed here, ``<= 6u``, checked in
      ``tests/network/test_float32_rows.py``) adds ``6u``;
    * the float64 window sum of non-negative terms:
      ``gamma_{n+1}`` of float64, below ``1e-13`` relative.

    Summed with the weights, ``sum g h |y| <= sqrt(sum g h^2 L) <= P``
    and ``sum g h^2 <= P`` (Cauchy-Schwarz, Minkowski), where ``P =
    (sqrt(sum g a^2) + sigma sqrt(sum g b^2))^2 >= L``; ``S <= L``.  The
    float64 ``L~`` errs by at most ``gamma_{n+4}`` of float64 times
    ``P`` (its cross term is not sign-definite).  So ``A = 11u L + 9u P
    + 2^-146 (1 + sigma) sum g``: ``10u`` and ``8u`` to first order,
    one ``u`` of slack each for the second-order and float64 terms, and
    an absolute term for float32 underflow (at most ``2^-150`` an
    operation).  Changing the screen must not change a count: the
    screened decisions equal the full path's on the fig6 chunk, and a
    symbol just outside the screen is graded in full
    (``tests/network/test_float32_rows.py``).
    """

    config: UwbConfig
    integrator: WindowIntegrator
    adc: Adc | AutoRangingAdc | None = None
    span_name = "link.decision"

    def decide(self, signal: np.ndarray, noise: np.ndarray, sigmas
               ) -> np.ndarray:
        """The int8 decisions on ``signal + sigma * noise`` for every
        noise scale in *sigmas* (bit 1 where slot 1 beats slot 0 after
        the converter), shape ``S + (n,)``; the arguments are those of
        :meth:`slot_values`."""
        sigmas = np.asarray(sigmas, dtype=float)
        _WINDOWS.inc(sigmas.size * signal.shape[0] * 2)
        # Substitute models without the method state no bound.
        deficit_bound = getattr(self.integrator, "deficit_bound", None)
        bound = None if self.adc is not None or deficit_bound is None \
            else deficit_bound(signal.shape[-1], self.config.dt)
        if bound is None:
            return decide_slots(self.slot_values(signal, noise, sigmas),
                                self.adc)[1]
        # The windows the screen leaves are few (about 0.3 of fig6's 8
        # rows), and this thread grades them alone: handing them to the
        # helper thread, busy with the next chunk's noise, was slower.
        decisions, unresolved = _screen(signal, noise, sigmas, *bound)
        left = 0
        for i in np.ndindex(sigmas.shape):
            symbols = np.flatnonzero(unresolved[i])
            if len(symbols):
                values = self._gathered_values(signal, noise, sigmas[i],
                                               symbols)
                decisions[i + (symbols,)] = values[:, 1] > values[:, 0]
                left += len(symbols)
        _FULL_WINDOWS.inc(2 * left)
        return decisions

    def slot_values(self, signal: np.ndarray, noise: np.ndarray, sigmas
                    ) -> np.ndarray:
        """The integrator's slot values of ``signal + sigma * noise``
        for every noise scale in *sigmas* (before any converter).

        Args:
            signal / noise: the front end's drive-scaled clean and
                unit-noise slots, shape ``(n, 2, samples_per_slot)``.
            sigmas: noise scales of any shape ``S`` (a scalar grades
                one chunk); the values have shape ``S + (n, 2)``.
        """
        sigmas = np.asarray(sigmas, dtype=float)
        # Substitute models without the method count as nonlinear.
        linear_weights = getattr(self.integrator, "linear_weights", None)
        weights = None if linear_weights is None else linear_weights(
            signal.shape[-1], self.config.dt)
        if weights is not None:
            return _linear_values(*_reductions(signal, noise, weights),
                                  sigmas)
        _FULL_WINDOWS.inc(sigmas.size * signal.shape[0] * 2)
        # float32 rows, cast once per call; the model sums each window
        # in float64.
        signal = signal.astype(np.float32)
        noise = noise.astype(np.float32)
        values = np.empty(sigmas.shape + signal.shape[:-1])
        _shared(lambda rows: self._grade_rows(signal, noise, sigmas,
                                              values, rows),
                list(np.ndindex(sigmas.shape)))
        return values

    def _gathered_values(self, signal: np.ndarray, noise: np.ndarray,
                         sigma: float, symbols: np.ndarray
                         ) -> np.ndarray:
        """Slot values of the windows of *symbols* at noise scale
        *sigma*, shape ``(len(symbols), 2)``: gathered and graded as
        :meth:`slot_values` grades a whole row, so each window's value
        is bit-identical to the full row's."""
        values = np.empty((len(symbols), 2))
        self._grade_rows(signal[symbols].astype(np.float32),
                         noise[symbols].astype(np.float32),
                         np.asarray(sigma), values, [()])
        return values

    def _grade_rows(self, signal: np.ndarray, noise: np.ndarray,
                    sigmas: np.ndarray, values: np.ndarray,
                    rows: Iterator[tuple]) -> None:
        # One float32 row at a time, built in place (fan-out, square,
        # then the model's limiter) in a buffer of this thread's own,
        # shaped like *signal* (the chunk, or the windows gathered from
        # it), that stays in cache for the float64 window sum.
        # Every row runs the same calls on the same shapes, so a row
        # graded alone, batched or on either thread rounds alike.
        row = np.empty(signal.shape, dtype=np.float32)
        for i in rows:
            np.multiply(noise, np.float32(sigmas[i]), out=row)
            row += signal
            np.square(row, out=row)
            values[i] = self.integrator.window_outputs(
                row, self.config.dt, overwrite_x=True)


def _reductions(signal: np.ndarray, noise: np.ndarray,
                weights: np.ndarray) -> tuple[np.ndarray, ...]:
    """``(sum g a^2, 2 sum g a b, sum g b^2)`` per slot: with them,
    ``sum g (a + s b)^2`` costs three multiply-adds per row."""
    return (_weighted_dot(signal, signal, weights),
            2.0 * _weighted_dot(signal, noise, weights),
            _weighted_dot(noise, noise, weights))


def _linear_values(aa: np.ndarray, ab2: np.ndarray, bb: np.ndarray,
                   sigmas: np.ndarray) -> np.ndarray:
    """``sum g (a + s b)^2 = sum g a^2 + 2 s sum g a b + s^2 sum g
    b^2`` for every noise scale ``s`` in *sigmas*."""
    s = sigmas[..., None, None]
    values = s * ab2
    values += aa
    values += (s * s) * bb
    return values


#: the screen's rounding allowance per slot, ``_ALLOW_L L + _ALLOW_P P
#: + _ALLOW_ABS (1 + sigma) sum g`` with the float32 unit roundoff
#: ``u = 2^-24`` (derived in :class:`DecisionStage`).
_ALLOW_L = 11 * 2.0 ** -24
_ALLOW_P = 9 * 2.0 ** -24
_ALLOW_ABS = 2.0 ** -146


def _screen(signal: np.ndarray, noise: np.ndarray, sigmas: np.ndarray,
            weights: np.ndarray, deficit: float
            ) -> tuple[np.ndarray, np.ndarray]:
    """``(decisions, unresolved)``, shape ``S + (n,)``: each pair's
    decision from its linear values, and whether the limiter's bound
    plus the rounding allowance could flip it (then the decision is
    not yet made).  See :class:`DecisionStage`."""
    aa, ab2, bb = _reductions(signal, noise, weights)
    linear = _linear_values(aa, ab2, bb, sigmas)
    s = sigmas[..., None, None]
    # B = c vmax^2 L, vmax = (max|a| + s max|b|)^2; max|x| as
    # max(max x, -min x) takes no chunk-sized temporary.
    vmax = s * np.maximum(noise.max(-1), -noise.min(-1))
    vmax += np.maximum(signal.max(-1), -signal.min(-1))
    vmax *= vmax
    limit = vmax * vmax
    limit *= deficit
    limit *= linear
    # A = _ALLOW_L L + _ALLOW_P P + _ALLOW_ABS (1 + s) sum g.
    allow = s * np.sqrt(bb)
    allow += np.sqrt(aa)
    allow *= allow
    allow *= _ALLOW_P
    allow += _ALLOW_L * linear
    allow += _ALLOW_ABS * (1.0 + s) * weights.sum()
    margin = linear[..., 1] - linear[..., 0]
    ones = margin > 0
    threshold = np.where(ones, limit[..., 1], limit[..., 0])
    threshold += allow[..., 0]
    threshold += allow[..., 1]
    return ones.astype(np.int8), ~(np.abs(margin) > threshold)


def _weighted_dot(x: np.ndarray, y: np.ndarray, weights: np.ndarray
                  ) -> np.ndarray:
    """``sum_i x_i y_i w_i`` over the last axis, in one pass (no
    product temporaries)."""
    return np.einsum("...i,...i,i->...", x, y, weights)


@dataclass
class SignalPipeline:
    """An ordered stage composition executable chunk by chunk:
    :meth:`draw` draws a chunk's :class:`LinkState`, each stage's
    ``process(state)`` then mutates it, and its ``span_name`` labels
    it in a trace."""

    stages: tuple

    def __post_init__(self) -> None:
        self.stages = tuple(self.stages)
        if not self.stages:
            raise ValueError("pipeline needs at least one stage")

    def draw(self, n: int, rng: np.random.Generator, *,
             noise: bool = True) -> LinkState:
        """Draw one chunk of *n* symbols from *rng*, in the order of
        the draw-order contract (module docstring): the victim bits,
        each interferer's bits in path order, then the unit noise
        (:attr:`LinkState.unit`).

        Args:
            noise: ``False`` stops before the unit noise, for a caller
                that makes :meth:`draw_noise` the generator's next
                draw.
        """
        state = LinkState(n=n, bits=random_bits(n, rng))
        state.interferer_bits = tuple(
            random_bits(n, rng) for _ in range(_interferer_count(self)))
        if noise:
            state.unit = self.draw_noise(n, rng)
        return state

    def draw_noise(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """The unit-variance noise vector of a chunk of *n* symbols."""
        return rng.standard_normal(
            n * self.stages[0].config.samples_per_symbol)

    def process(self, state: LinkState) -> None:
        """Push a drawn chunk through every stage."""
        # Hot path: the disabled branch must stay the bare stage loop
        # (one module attribute load + one branch per chunk; pinned by
        # tests/obs/test_overhead.py).
        if _trace.ENABLED:
            for stage in self.stages:
                with _trace.span(stage.span_name):
                    stage.process(state)
        else:
            for stage in self.stages:
                stage.process(state)

    def run_chunk(self, n: int, rng: np.random.Generator) -> LinkState:
        """Draw one fresh chunk of *n* symbols and push it through
        every stage, all on the calling thread."""
        if n <= 0:
            raise ValueError("chunk size must be positive")
        state = self.draw(n, rng)
        self.process(state)
        return state


def _filtered_noise(front: SignalPipeline, n: int,
                    rng: np.random.Generator) -> np.ndarray:
    """Draw a chunk's unit noise and return it band-passed and
    drive-scaled in place by the front's last stage, so the job holds
    one noise vector, not two."""
    return front.stages[-1]._drive(front.draw_noise(n, rng), n,
                                   overwrite_x=True)


def run_ber_point(front: SignalPipeline, decider: DecisionStage,
                  sigma: float, rng: np.random.Generator,
                  **rule) -> tuple[int, int]:
    """Monte-Carlo chunk loop over one operating point: the 1x1 case of
    :func:`run_ber_sweep` (same arguments and stopping-rule keywords).

    Returns:
        ``(errors, bits)`` counters.
    """
    ((errors, bits),) = run_ber_sweep((front,), (decider,), ((sigma,),),
                                      rng, **rule)
    return int(errors[0, 0]), int(bits[0, 0])


_PRIMED_BYTES = 0

#: heap a chunk's temporaries span in one allocator arena, in
#: chunk-sized float64 vectors.  With the helper's jobs inline about 4.6
#: are live at once (the filtered signal, the noise being graded and the
#: look-ahead's, an unscreened nonlinear decider's three half-size
#: float32 copies and the filter's work arrays), and the free gaps
#: between them make up the rest.
HEAP_VECTORS = 6


def _prime_allocator(vector_bytes: int) -> None:
    """Keep a sweep's chunk temporaries resident from chunk to chunk.

    glibc maps a request above its mmap threshold afresh, and returns
    the free space at the top of a heap to the OS once it exceeds its
    trim threshold (both 128 KiB at start).  Freeing a mapped block
    raises the mmap threshold to that block's size and the trim
    threshold to twice it.  A chunk frees its temporaries together, so
    unless the trim threshold exceeds the heap they span
    (:data:`HEAP_VECTORS` vectors of *vector_bytes*) the heap hands
    their pages back after every chunk and the next chunk page-faults
    them all in again (``ber_mui`` takes about 80,000 minor faults per
    operation that way).  Mapping and releasing one block of half that
    span, once per process, sets both thresholds.
    """
    # glibc caps the dynamic mmap threshold at 32 MiB.  Once adapted,
    # priming at or below the same size changes nothing.
    global _PRIMED_BYTES
    block_bytes = max(1, min(HEAP_VECTORS * vector_bytes // 2, 1 << 25))
    if block_bytes <= _PRIMED_BYTES:
        return
    _PRIMED_BYTES = block_bytes
    scratch = np.empty(block_bytes, dtype=np.uint8)
    del scratch


def keeps_sampling(errors: int, bits: int, *, target_errors: int,
                   max_bits: int, min_bits: int,
                   adaptive: AdaptiveStopping | None) -> bool:
    """The Monte-Carlo stopping rule of one cell: does a cell at
    ``errors/bits`` need another chunk?  The hard ``target_errors`` /
    ``max_bits`` caps come first, then the optional sequential
    :class:`~repro.uwb.fastsim.AdaptiveStopping` early exit, checked
    once ``min_bits`` have been simulated."""
    if not (bits < max_bits and (errors < target_errors
                                 or bits < min_bits)):
        return False
    return not (adaptive is not None and bits >= min_bits
                and adaptive.resolved(errors, bits))


def run_ber_sweep(fronts: Sequence[SignalPipeline],
                  deciders: Sequence[DecisionStage],
                  sigmas: Sequence, rng: np.random.Generator, *,
                  target_errors: int = 100,
                  max_bits: int = 200_000,
                  min_bits: int = 2_000,
                  chunk_bits: int = 1_000,
                  adaptive: AdaptiveStopping | None = None
                  ) -> list[tuple[np.ndarray, np.ndarray]]:
    """Monte-Carlo sweep over a whole scenario batch in one chunk loop.

    Each chunk is drawn once - the victim bits, each interferer's bits
    and one unit-variance noise vector - and its noise band-passed
    once, by the :class:`AnalogFrontEndStage` every front shares.  Then
    each front with a cell still sampling runs one *front job*: it
    synthesizes its clean signal (Tx -> Channel -> Combine ->
    AnalogFrontEnd, **without** a decision stage) and grades each of
    its active noise scales through every :class:`DecisionStage` in
    *deciders*.  A whole BER campaign (every Eb/N0 point x every
    integrator variant) costs two filter passes and a handful of
    array ops per chunk, not an outer Python loop over points; each
    further front adds one filter pass.

    **Front axis.**  The fronts differ only in their
    :class:`CombineStage`: they share the Tx, Channel and
    AnalogFrontEnd stages and their interferer count, so one chunk's
    draws serve them all, and each has its own noise-scale grid
    (``sigmas[f]``).  Two or more front jobs are pulled from one shared
    iterator by this thread and the helper thread, and each job grades
    its rows on the thread that runs it.  A lone front runs on this
    thread and shares a nonlinear decider's full rows instead
    (:class:`DecisionStage`).

    **Seeding / sharing convention.**  All scenarios consume *one*
    generator: per chunk the driver draws the victim bits, each
    interferer's bits (in path order) and one unit-variance noise
    vector - exactly the draw sequence of a single per-point run.
    Scenario (front f, decider k, sigma j) is therefore bit-identical
    to a 1x1 sweep of that cell (:func:`run_ber_point` over front f)
    started from the *same generator seed*: it sees the same bits, the
    same interferers and the same noise process scaled by its own
    sigma, and its slot values depend on no other row or front.

    **Retirement.**  Each cell follows the :func:`keeps_sampling`
    stopping rule independently: a resolved cell simply stops
    accumulating while the shared draws continue for the survivors, so
    retiring a cell cannot perturb any other cell's stream (its
    counters freeze behind the shared ``bits_done``, which keeps it
    retired).  Each decider grades only its active rows, and a front
    whose cells have all retired runs no job.

    **Look-ahead.**  Once chunk ``k`` has its noise, this thread draws
    chunk ``k + 1``'s bits and the helper thread draws and band-passes
    its noise while chunk ``k`` is synthesized and graded (module
    docstring).  When the stopping rule, or an exception, ends the
    sweep with that chunk drawn, its noise job is joined or cancelled
    and the generator rewound: *rng* ends where a serial run leaves
    it, also when the sweep raises.

    Args:
        fronts: the pipeline fronts, each ending in the one
            :class:`AnalogFrontEndStage` they share (no
            :class:`DecisionStage`); the first one draws the chunks.
        deciders: one decision stage per integrator variant; all
            variants share each front's work of each chunk.
        sigmas: one 1-D vector of noise standard deviations per front,
            each finite and >= 0 (one per Eb/N0 point of that front's
            sweep; Eb/N0 = +inf is sigma 0, a NaN Eb/N0 is rejected).
            They are sized against the *victim's* pilot energy:
            interference is extra disturbance on top of the
            thermal-noise operating point (the standard SIR
            convention).
        rng: the sweep's single shared generator.

    Returns:
        One ``(errors, bits)`` pair of int64 arrays of shape
        ``(len(deciders), len(sigmas[f]))`` per front.
    """
    if chunk_bits < 1:
        raise ValueError("chunk_bits must be >= 1")
    if max_bits < 1:
        raise ValueError("max_bits must be >= 1")
    if min_bits < 0:
        raise ValueError("min_bits must be >= 0")
    if target_errors < 1:
        raise ValueError("target_errors must be >= 1")
    fronts = tuple(fronts)
    grids = [np.asarray(s, dtype=float) for s in sigmas]
    if len(grids) != len(fronts):
        raise ValueError(f"{len(fronts)} fronts need {len(fronts)} "
                         f"sigma vectors, got {len(grids)}")
    if any(g.ndim != 1 for g in grids):
        raise ValueError("sigmas must be 1-D vectors")
    if any(not np.all(np.isfinite(g) & (g >= 0)) for g in grids):
        raise ValueError("sigmas must be finite and >= 0")
    if any(not isinstance(f.stages[-1], AnalogFrontEndStage)
           for f in fronts):
        raise ValueError("front must end in an AnalogFrontEndStage")
    if any(f.stages[-1] is not fronts[0].stages[-1] for f in fronts):
        raise ValueError("fronts must share their AnalogFrontEndStage: "
                         "it band-passes the chunk's one noise vector")
    if len({_interferer_count(f) for f in fronts}) > 1:
        raise ValueError("fronts must draw alike: every front needs "
                         "the same number of interferers")
    deciders = tuple(deciders)
    counts = [(np.zeros((len(deciders), len(g)), dtype=np.int64),
               np.zeros((len(deciders), len(g)), dtype=np.int64))
              for g in grids]
    if not any(errors.size for errors, _bits in counts):
        return counts
    rule = dict(target_errors=target_errors, max_bits=max_bits,
                min_bits=min_bits, adaptive=adaptive)
    # The first front draws for all: the fronts draw alike.
    draw = fronts[0]
    samples = (min(chunk_bits, max_bits)
               * draw.stages[0].config.samples_per_symbol)
    with _trace.span("link.prime"):
        _prime_allocator(samples * 8)
        _helper()
    bits_done = 0
    # The chunk to grade next (bits drawn, noise on the helper), and
    # the generator's state before its draws while it is a look-ahead
    # the stopping rule may yet discard.
    drawn: LinkState | None = None
    noise: futures.Future | None = None
    before: dict | None = None
    # A front already synthesized for the chunk being graded.
    ready: dict[int, LinkState] = {}
    try:
        while True:
            active = [_active_cells(errors, bits, bits_done, rule)
                      for errors, bits in counts]
            live = [f for f, cells in enumerate(active) if cells.any()]
            if not live:
                break
            n = min(chunk_bits, max_bits - bits_done)
            if drawn is None:
                # The first chunk: its noise is drawn on the helper
                # while this thread synthesizes the first front.
                drawn = draw.draw(n, rng, noise=False)
                noise = _helper().submit(_filtered_noise, draw, n, rng)
                ready[live[0]] = _synthesize(fronts[live[0]], drawn)
            # Failed, the noise job is this chunk's failure: it is not
            # joined again.  The future holds the filtered noise, so it
            # goes as soon as this chunk has it.
            before = None
            job, noise = noise, None
            chunk_noise = _result(job)
            del job
            ahead = None
            if bits_done + n < max_bits:
                # Another chunk is possible and the helper is done with
                # the generator: draw the chunk's bits here, and have
                # the helper draw and band-pass its noise while this
                # chunk is synthesized and graded.  The draws are
                # row-count independent (shared bits + one unit noise
                # vector), so retirement never moves the stream.
                m = min(chunk_bits, max_bits - bits_done - n)
                before = rng.bit_generator.state
                ahead = draw.draw(m, rng, noise=False)
                noise = _helper().submit(_filtered_noise, draw, m, rng)

            def front_jobs(jobs: Iterator[int]) -> None:
                # Runs on either thread; _shared joins the helper's
                # share before this chunk's variables move on.
                for f in jobs:
                    state = ready.pop(f, None)
                    if state is None:
                        state = _synthesize(fronts[f], drawn)
                    errors, bits = counts[f]
                    for k, decider in enumerate(deciders):
                        cols = np.flatnonzero(active[f][k])
                        if not len(cols):
                            continue
                        with _trace.span(decider.span_name):
                            decisions = decider.decide(
                                state.signal, chunk_noise, grids[f][cols])
                            errors[k, cols] += np.count_nonzero(
                                decisions != drawn.bits[None, :], axis=-1)
                        bits[k, cols] += n

            _shared(front_jobs, live)
            bits_done += n
            # Free this chunk's arrays before the next chunk allocates
            # its own.
            drawn, ahead, chunk_noise = ahead, None, None
    finally:
        # The generator must end where the serial program leaves it:
        # a chunk being graded keeps its noise draw, a look-ahead that
        # was not needed is dropped and its draws rewound.
        if noise is not None:
            _join(noise, cancel=before is not None)
        if before is not None:
            _DISCARDED.inc()
            rng.bit_generator.state = before
    return counts


def _interferer_count(front: SignalPipeline) -> int:
    """Interferers whose bits :meth:`SignalPipeline.draw` draws."""
    return sum(len(getattr(stage, "interferers", ()))
               for stage in front.stages)


def _active_cells(errors: np.ndarray, bits: np.ndarray, bits_done: int,
                  rule: dict) -> np.ndarray:
    """Which cells of one front sample the next chunk: those not
    retired yet (their bits keep up with ``bits_done``) that the
    stopping rule keeps sampling."""
    active = np.zeros(errors.shape, dtype=bool)
    for cell in np.ndindex(errors.shape):
        active[cell] = (bits[cell] == bits_done
                        and keeps_sampling(int(errors[cell]), bits_done,
                                           **rule))
    return active


def _synthesize(front: SignalPipeline, drawn: LinkState) -> LinkState:
    """*front*'s band-passed clean signal for the *drawn* chunk: its
    stages run on a state of its own that holds the chunk's draws."""
    state = LinkState(n=drawn.n, bits=drawn.bits,
                      interferer_bits=drawn.interferer_bits)
    front.process(state)
    return state
