"""The mixed-signal simulation kernel."""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable

from repro.ams.block import AnalogBlock
from repro.ams.engine import get_engine
from repro.ams.engine.base import ExecutionEngine
from repro.ams.quantity import Quantity
from repro.ams.signal import Signal


class Simulator:
    """Fixed-step analog + event-driven digital co-simulation.

    The observable semantics are those of the lock-step scheme: analog
    time advances in steps of *dt* (the paper uses 0.05 ns); after each
    analog step every digital event with a timestamp up to the new time
    executes, including the delta-cycle cascades it triggers.  Digital
    processes therefore observe analog quantities sampled on the analog
    grid, and analog blocks see digital control signals with at most one
    step of latency.

    *How* those semantics are executed is delegated to a pluggable
    :class:`~repro.ams.engine.base.ExecutionEngine`: ``"reference"``
    steps block-by-block (the oracle), ``"compiled"`` vectorizes whole
    inter-event segments with NumPy (see :mod:`repro.ams.engine`).

    Typical use::

        sim = Simulator(dt=50e-12)               # or engine="compiled"
        vin = sim.quantity("vin")
        ...add blocks, schedule events...
        sim.run(30e-6)
    """

    def __init__(self, dt: float,
                 engine: str | ExecutionEngine = "reference"):
        if dt <= 0:
            raise ValueError("dt must be positive")
        self.dt = float(dt)
        self.t = 0.0
        self.blocks: list[AnalogBlock] = []
        self.quantities: dict[str, Quantity] = {}
        self.signals: dict[str, Signal] = {}
        self._queue: list[tuple[float, int, Callable[[], None]]] = []
        self._seq = itertools.count()
        self._step_hooks: list[Callable[[float], None]] = []
        self._reset_hooks: list[Callable[[], None]] = []
        self._engine = get_engine(engine)
        # Event registrations made while building the testbench (before
        # the first run) are remembered so reset() can re-arm them.
        self._building = True
        self._armings: list[Callable[[], None]] = []
        self.cpu_time = 0.0
        self.steps = 0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @property
    def engine(self) -> ExecutionEngine:
        """The execution engine (fixed at construction)."""
        return self._engine

    def quantity(self, name: str, init: float = 0.0) -> Quantity:
        """Create (or fetch) a named analog quantity."""
        if name in self.quantities:
            return self.quantities[name]
        q = Quantity(name, init)
        self.quantities[name] = q
        return q

    def signal(self, name: str, init: Any = 0) -> Signal:
        """Create (or fetch) a named digital signal."""
        if name in self.signals:
            return self.signals[name]
        s = Signal(name, init)
        s._bind(self)
        self.signals[name] = s
        return s

    def add_block(self, block: AnalogBlock) -> AnalogBlock:
        """Register an analog block; execution follows registration
        order (must respect signal flow)."""
        self.blocks.append(block)
        return block

    def add_step_hook(self, hook: Callable[[float], None]) -> None:
        """Run *hook(t)* after every analog step (recorders use this).

        Hooks that additionally implement the vectorized
        ``hook_block(t_array, resolve)`` protocol (as
        :class:`~repro.ams.waveform.Recorder` does) stay compatible with
        the compiled engine; plain callables force it to fall back to
        lock-step execution.
        """
        self._step_hooks.append(hook)

    def on_reset(self, fn: Callable[[], None]) -> None:
        """Run *fn* during :meth:`reset` - testbench accumulators
        (slot samplers, harvesters) register their clearing here so the
        reset contract covers them too."""
        self._reset_hooks.append(fn)

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def _push_event(self, delay: float, fn: Callable[[], None]) -> None:
        """Queue *fn* at ``t + delay``; while the testbench is still
        being built, also remember the push so reset() can re-arm it."""
        if self._building:
            self._armings.append(
                lambda: heapq.heappush(
                    self._queue, (self.t + delay, next(self._seq), fn)))
        heapq.heappush(self._queue,
                       (self.t + delay, next(self._seq), fn))

    def schedule(self, delay: float, fn: Callable[[], None]) -> None:
        """Run *fn* at ``t + delay`` (during event processing)."""
        if delay < 0:
            raise ValueError("cannot schedule in the past")
        self._push_event(delay, fn)

    def every(self, period: float, fn: Callable[["Simulator"], None],
              start: float = 0.0) -> None:
        """Run *fn(sim)* periodically (clock-like process)."""
        if period <= 0:
            raise ValueError("period must be positive")

        def tick():
            fn(self)
            heapq.heappush(self._queue,
                           (self.t + period, next(self._seq), tick))

        self._push_event(start, tick)

    def _schedule_signal(self, sig: Signal, value: Any,
                         after: float) -> None:
        self._push_event(after, lambda: sig.force(value))

    def _drain_events(self, up_to: float) -> None:
        queue = self._queue
        while queue and queue[0][0] <= up_to + 1e-21:
            t_ev, _seq, fn = heapq.heappop(queue)
            self.t = max(self.t, t_ev)
            fn()
        self.t = up_to

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def initialize(self) -> None:
        """Process time-zero events (signal initializations)."""
        self._building = False
        self._drain_events(0.0)

    def run(self, t_stop: float) -> None:
        """Advance the simulation until *t_stop* (via the engine)."""
        self._building = False
        self._engine.run(self, t_stop)

    def run_steps(self, n: int) -> None:
        """Advance exactly *n* analog steps."""
        self.run(self.t + (n + 0.25) * self.dt)

    def reset(self) -> None:
        """Restore the testbench to its pre-run state.

        Time, step/CPU counters and the event queue are cleared; blocks
        get :meth:`~repro.ams.block.AnalogBlock.reset`; quantities and
        signals return to their initial values; accumulators registered via :meth:`on_reset`
        (recorders, harvesters) are cleared; events registered while
        the testbench was built (``schedule`` / ``every`` /
        ``Signal.assign`` before the first run) are re-armed.  Back-to-back runs of one testbench are
        therefore reproducible.  Limitation: blocks whose ``reset`` is a
        no-op (e.g. Spice co-simulation state) keep their state.
        """
        self.t = 0.0
        self.steps = 0
        self.cpu_time = 0.0
        self._queue.clear()
        for block in self.blocks:
            block.reset()
        for quantity in self.quantities.values():
            quantity.reset()
        for sig in self.signals.values():
            sig.reset()
        for fn in self._reset_hooks:
            fn()
        for push in self._armings:
            push()
