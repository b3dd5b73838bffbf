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
(:meth:`BandPassFilter.__call__` with ``overwrite_x``).  The first
chunk's noise overlaps its own synthesis.  Every later chunk's bits
are drawn as soon as the chunk before it has its noise, and its noise
job overlaps the synthesis and grading of that chunk; once its draw is
done the helper takes decision rows.  The calling thread draws only
while the helper has no draw in flight, so the draw sequence is the
serial one.  A sweep that stops - or raises - with a look-ahead chunk
drawn joins (or cancels) its noise job and rewinds the generator to
the state recorded before that chunk's bits (counted as
``link.draw_ahead.discarded``): the generator ends exactly where the
serial program leaves it, and every count is the serial count.  A
nonlinear :class:`DecisionStage` pulls its rows from one shared
iterator on both threads - the helper joins in once its noise job is
done; a single row stays on the calling thread - and each row's
arithmetic is the same on either.  :meth:`SignalPipeline.run_chunk`
draws and synthesizes inline, on the calling thread.  A forked child
makes its own helper.  A process started by :mod:`multiprocessing`
(a pool worker, whose siblings claim the other cores) or limited to
one CPU gets no helper thread: its helper runs each job on
submission, so the same sweep runs serially.  A trace shows every join of the calling thread
- a chunk's noise, a discarded look-ahead, the helper's decision rows
- as a ``link.wait`` span beside the span it interrupts, whether the
job ran or was cancelled; the helper's own work is in no collected
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
slot values agree with float64 rows to about 1e-7 relative.  Either
way row ``i``'s arithmetic depends only on ``sigmas[i]``, so a row
graded alone, in a sub-grid or after other rows retired is
bit-identical to the same row in the full batch - the invariant
:func:`run_ber_sweep` builds the whole-curve sweep on (pinned by
``tests/network/test_batched_sweep.py``).

Stages are deliberately dependency-light (uwb building blocks only);
:mod:`repro.link.backends` resolves :class:`~repro.link.spec.NetworkSpec`
interference descriptions into :class:`InterfererPath` values (SIR
calibration needs the pilot energies, which live with the builders).
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent import futures
from dataclasses import dataclass
from typing import Iterator, Sequence

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

_HELPER: futures.Executor | None = None


def _helper() -> futures.Executor:
    """The process's one helper (made on first use): a thread, or - in
    a process with no core to spare for it - :class:`_Inline`."""
    global _HELPER
    if _HELPER is None:
        _HELPER = futures.ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-link-helper"
        ) if _spare_core() else _Inline()
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
    global _HELPER
    _HELPER = None


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
            after :class:`CombineStage` (a sweep frees it once the
            front is done).
        unit: the chunk's one unit-variance noise vector, as long as
            ``waveform`` (drawn; ``None`` in a sweep, whose helper
            thread band-passes it in place).
        signal: ``waveform`` band-passed and drive-scaled, shaped
            ``(n, 2, samples_per_slot)`` (set by
            :class:`AnalogFrontEndStage`).
        noise: ``unit`` through the same band-pass and scaling, same
            shape; row ``i`` of a decider squares ``signal + sigma_i
            * noise``.
    """

    n: int
    bits: np.ndarray | None = None
    interferer_bits: tuple[np.ndarray, ...] = ()
    waveform: np.ndarray | None = None
    unit: np.ndarray | None = None
    signal: np.ndarray | None = None
    noise: np.ndarray | None = None


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
    clean waveform and of the unit noise, each once per chunk (output
    reshaped into per-slot windows; the squarer runs per noise scale in
    the :class:`DecisionStage`).  In a sweep the unit noise never
    reaches this stage: the helper thread band-passes it in place, one
    chunk ahead (see :func:`run_ber_sweep`)."""

    config: UwbConfig
    bpf: BandPassFilter
    scale: float
    span_name = "link.afe"

    def process(self, state: LinkState) -> None:
        state.signal = self._drive(state.waveform, state.n)
        if state.unit is not None:
            state.noise = self._drive(state.unit, state.n)

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

    A linear model grades every row from three float64 reductions.  A
    nonlinear one (the circuit surrogate) grades row by row in float32
    (fan-out, square, input limiter) with float64 window sums, so the
    slot values and decisions stay float64; two or more rows are
    pulled from one shared iterator by this thread and the helper
    thread, which joins in once its queued work is done.
    """

    config: UwbConfig
    integrator: WindowIntegrator
    adc: Adc | AutoRangingAdc | None = None
    span_name = "link.decision"

    def decide(self, signal: np.ndarray, noise: np.ndarray, sigmas
               ) -> tuple[np.ndarray, np.ndarray]:
        """``(slot_values, decisions)`` of ``signal + sigma * noise``
        for every noise scale in *sigmas*.

        Args:
            signal / noise: the front end's drive-scaled clean and
                unit-noise slots, shape ``(n, 2, samples_per_slot)``.
            sigmas: noise scales of any shape ``S`` (a scalar grades
                one chunk); the outputs have shapes ``S + (n, 2)`` and
                ``S + (n,)``.
        """
        sigmas = np.asarray(sigmas, dtype=float)
        # Substitute models without the method count as nonlinear.
        linear_weights = getattr(self.integrator, "linear_weights", None)
        weights = None if linear_weights is None else linear_weights(
            signal.shape[-1], self.config.dt)
        if weights is not None:
            # sum g (a + s b)^2 = sum g a^2 + 2 s sum g a b
            # + s^2 sum g b^2: three reductions for every row.
            aa = _weighted_dot(signal, signal, weights)
            ab2 = 2.0 * _weighted_dot(signal, noise, weights)
            bb = _weighted_dot(noise, noise, weights)
            s = sigmas[..., None, None]
            values = s * ab2
            values += aa
            values += (s * s) * bb
        else:
            # float32 rows, cast once per call; the model sums each
            # window in float64.
            signal = signal.astype(np.float32)
            noise = noise.astype(np.float32)
            values = np.empty(sigmas.shape + signal.shape[:-1])
            # A list iterator hands each row out once, whichever thread
            # calls next() (one atomic step under the GIL).
            rows = iter(list(np.ndindex(sigmas.shape)))
            if sigmas.size <= 1:
                # One row: nothing to share.
                self._grade_rows(signal, noise, sigmas, rows, values)
            else:
                job = _helper().submit(self._grade_rows, signal, noise,
                                       sigmas, rows, values)
                try:
                    self._grade_rows(signal, noise, sigmas, rows, values)
                finally:
                    # Still queued (behind a chunk's noise job), the job
                    # would find no row left: drop it, else join it.
                    helped = _join(job, cancel=True)
                if helped:
                    job.result()
        return decide_slots(values, self.adc)

    def _grade_rows(self, signal: np.ndarray, noise: np.ndarray,
                    sigmas: np.ndarray, rows: Iterator[tuple],
                    values: np.ndarray) -> None:
        # One float32 row at a time, built in place (fan-out, square,
        # then the model's limiter) in a chunk-sized buffer of this
        # thread's own that stays in cache for the float64 window sum.
        # Every row runs the same calls on the same shapes, so a row
        # graded alone, batched or on either thread rounds alike.
        row = np.empty(signal.shape, dtype=np.float32)
        for i in rows:
            np.multiply(noise, np.float32(sigmas[i]), out=row)
            row += signal
            np.square(row, out=row)
            values[i] = self.integrator.window_outputs(
                row, self.config.dt, overwrite_x=True)


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
            random_bits(n, rng) for stage in self.stages
            for _ in getattr(stage, "interferers", ()))
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
    errors, bits = run_ber_sweep(front, (decider,), (sigma,), rng, **rule)
    return int(errors[0, 0]), int(bits[0, 0])


_PRIMED_BYTES = 0


def _prime_allocator(block_bytes: int) -> None:
    """Pre-adapt the process allocator to the sweep's chunk temporaries.

    The chunk temporaries (the noise vector, the two filter outputs
    and the reduction products, each one chunk of float64 samples, and
    a nonlinear decider's float32 casts of the filter outputs and its
    float32 rows, half a chunk's bytes each) sit far
    above glibc's initial 128 KiB mmap threshold, so an unprimed
    process mmaps each of them fresh and munmaps it again on every
    wave - every release hands the pages back to the OS and the next
    wave page-faults them all back in, which dominates a cold run.
    glibc's threshold is *dynamic*: freeing an mmapped block raises the
    threshold to that block's size, after which same-sized requests are
    served from the heap free list and their pages stay resident.
    Allocating and releasing a few wave-sized scratch blocks triggers
    that adaptation once, up front; touching a working set's worth of
    heap blocks afterwards pre-faults the pages the waves then recycle.
    """
    # glibc caps the dynamic threshold at 32 MiB; bigger blocks stay
    # mmapped no matter what, so clamp the scratch size to what the
    # adaptation can actually absorb.  Priming is per-process state:
    # once the allocator has adapted to a given block size, re-priming
    # at or below it would only burn a working set's worth of memset.
    global _PRIMED_BYTES
    block_bytes = max(1, min(block_bytes, 1 << 25))
    if block_bytes <= _PRIMED_BYTES:
        return
    _PRIMED_BYTES = block_bytes
    for _ in range(3):
        scratch = np.empty(block_bytes, dtype=np.uint8)
        del scratch
    # The working set: four live blocks, within a 128 MiB budget.
    count = max(1, min(4, (1 << 27) // block_bytes))
    blocks = [np.empty(block_bytes, dtype=np.uint8)
              for _ in range(count)]
    for scratch in blocks:
        scratch.fill(0)
    del blocks


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


def run_ber_sweep(front: SignalPipeline,
                  deciders: Sequence[DecisionStage],
                  sigmas, rng: np.random.Generator, *,
                  target_errors: int = 100,
                  max_bits: int = 200_000,
                  min_bits: int = 2_000,
                  chunk_bits: int = 1_000,
                  adaptive: AdaptiveStopping | None = None
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Monte-Carlo sweep over a whole scenario batch in one chunk loop.

    Runs the shared front of the pipeline (*front*: Tx -> Channel ->
    Combine -> AnalogFrontEnd, **without** a decision stage) once per
    chunk - one filtered signal/noise pair, whatever the number of
    rows - then grades every active noise scale through every
    :class:`DecisionStage` in *deciders*.  A whole BER campaign (every
    Eb/N0 point x every integrator variant) costs two filter passes
    and a handful of array ops per chunk, not an outer Python loop
    over points.

    **Seeding / sharing convention.**  All scenarios consume *one*
    generator: per chunk the driver draws the victim bits, each
    interferer's bits (in path order) and one unit-variance noise
    vector - exactly the draw sequence of a single per-point run.
    Scenario (decider k, sigma j) is therefore bit-identical to a 1x1
    sweep of that cell (:func:`run_ber_point`) started from the *same
    generator seed*: it sees the same bits, the same interferers and
    the same noise process scaled by its own sigma, and its slot
    values depend on no other row.

    **Retirement.**  Each cell follows the :func:`keeps_sampling`
    stopping rule independently: a resolved cell simply stops
    accumulating while the shared draws continue for the survivors, so
    retiring a cell cannot perturb any other cell's stream (its
    counters freeze behind the shared ``bits_done``, which keeps it
    retired).  Each decider grades only its active rows.

    **Look-ahead.**  Once chunk ``k`` has its noise, this thread draws
    chunk ``k + 1``'s bits and the helper thread draws and band-passes
    its noise while chunk ``k`` is synthesized and graded (module
    docstring).  When the stopping rule, or an exception, ends the
    sweep with that chunk drawn, its noise job is joined or cancelled
    and the generator rewound: *rng* ends where a serial run leaves
    it, also when the sweep raises.

    Args:
        front: the shared pipeline front, ending in an
            :class:`AnalogFrontEndStage` (no :class:`DecisionStage`).
        deciders: one decision stage per integrator variant; all
            variants share the front-end computation of each chunk.
        sigmas: a 1-D vector of per-scenario noise standard
            deviations, each >= 0 (one per Eb/N0 point of the sweep).
            They are sized against the *victim's* pilot energy:
            interference is extra disturbance on top of the
            thermal-noise operating point (the standard SIR
            convention).
        rng: the sweep's single shared generator.

    Returns:
        ``(errors, bits)`` int64 arrays of shape
        ``(len(deciders), len(sigmas))``.
    """
    if chunk_bits < 1:
        raise ValueError("chunk_bits must be >= 1")
    if max_bits < 1:
        raise ValueError("max_bits must be >= 1")
    if min_bits < 0:
        raise ValueError("min_bits must be >= 0")
    if target_errors < 1:
        raise ValueError("target_errors must be >= 1")
    sigmas = np.asarray(sigmas, dtype=float)
    if sigmas.ndim != 1:
        raise ValueError("sigmas must be a 1-D vector")
    if np.any(sigmas < 0):
        raise ValueError("sigmas must be >= 0")
    if not isinstance(front.stages[-1], AnalogFrontEndStage):
        raise ValueError("front must end in an AnalogFrontEndStage")
    deciders = tuple(deciders)
    n_dec, n_pts = len(deciders), len(sigmas)
    errors = np.zeros((n_dec, n_pts), dtype=np.int64)
    bits = np.zeros((n_dec, n_pts), dtype=np.int64)
    if n_dec == 0 or n_pts == 0:
        return errors, bits
    rule = dict(target_errors=target_errors, max_bits=max_bits,
                min_bits=min_bits, adaptive=adaptive)
    samples = (min(chunk_bits, max_bits)
               * front.stages[0].config.samples_per_symbol)
    with _trace.span("link.prime"):
        _prime_allocator(samples * 8)
    bits_done = 0
    # The chunk to grade next (bits drawn, noise on the helper), and
    # the generator's state before its draws while it is a look-ahead
    # the stopping rule may yet discard.
    state: LinkState | None = None
    noise: futures.Future | None = None
    before: dict | None = None
    try:
        while True:
            active = np.zeros((n_dec, n_pts), dtype=bool)
            for k in range(n_dec):
                for j in range(n_pts):
                    active[k, j] = (bits[k, j] == bits_done
                                    and keeps_sampling(int(errors[k, j]),
                                                       bits_done, **rule))
            if not active.any():
                break
            n = min(chunk_bits, max_bits - bits_done)
            first = state is None
            if first:
                # The first chunk: its noise is drawn on the helper
                # while this thread synthesizes.
                state = front.draw(n, rng, noise=False)
                noise = _helper().submit(_filtered_noise, front, n, rng)
                front.process(state)
            # Failed, the noise job is this chunk's failure: it is not
            # joined again.  The future holds the filtered noise, so it
            # goes as soon as the state has it.
            before = None
            job, noise = noise, None
            state.noise = _result(job)
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
                ahead = front.draw(m, rng, noise=False)
                noise = _helper().submit(_filtered_noise, front, m, rng)
            if not first:
                front.process(state)
            # Graded from signal and noise only: free the clean
            # waveform.
            state.waveform = None
            for k, decider in enumerate(deciders):
                cols = np.flatnonzero(active[k])
                if not len(cols):
                    continue
                with _trace.span(decider.span_name):
                    _, decisions = decider.decide(
                        state.signal, state.noise, sigmas[cols])
                    errors[k, cols] += np.count_nonzero(
                        decisions != state.bits[None, :], axis=-1)
                bits[k, cols] += n
            bits_done += n
            # Free this chunk's arrays before the next chunk allocates
            # its own.
            state, ahead = ahead, None
    finally:
        # The generator must end where the serial program leaves it:
        # a chunk being graded keeps its noise draw, a look-ahead that
        # was not needed is dropped and its draws rewound.
        if noise is not None:
            _join(noise, cancel=before is not None)
        if before is not None:
            _DISCARDED.inc()
            rng.bit_generator.state = before
    return errors, bits
