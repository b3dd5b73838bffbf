"""Digital signals (the VHDL side of the kernel)."""

from __future__ import annotations

from typing import Any, Callable


class Signal:
    """An event-driven signal carrying an arbitrary Python value.

    Signals are owned by a :class:`~repro.ams.kernel.Simulator` once any
    process or assignment touches them.  Assignments are scheduled through
    the simulator's event queue (``after`` models VHDL's ``after``
    clause); immediate assignments still go through a delta cycle so all
    processes triggered in the same instant observe a consistent value.
    """

    def __init__(self, name: str, init: Any = 0):
        self.name = name
        self._init = init
        self._value = init
        self._watchers: list[Callable[["Signal"], None]] = []
        self._sim = None  # set on registration

    def reset(self) -> None:
        """Restore the initial value silently (watchers do not fire) -
        the kernel reset contract."""
        self._value = self._init

    # -- value access ---------------------------------------------------
    @property
    def value(self) -> Any:
        return self._value

    def __bool__(self) -> bool:
        return bool(self._value)

    # -- simulator plumbing ----------------------------------------------
    def _bind(self, sim) -> None:
        if self._sim is not None and self._sim is not sim:
            raise RuntimeError(
                f"signal {self.name!r} already belongs to another simulator")
        self._sim = sim

    def watch(self, callback: Callable[["Signal"], None]) -> None:
        """Run *callback(signal)* on every value change (used by
        processes; also handy for ad-hoc probes in tests)."""
        self._watchers.append(callback)

    def assign(self, value: Any, after: float = 0.0) -> None:
        """Schedule ``signal <= value after <delay>`` (delta cycle for
        ``after=0``)."""
        if self._sim is None:
            raise RuntimeError(
                f"signal {self.name!r} is not registered with a simulator")
        self._sim._schedule_signal(self, value, after)

    def force(self, value: Any) -> None:
        """Set the value immediately, firing watchers if it changed
        (how the kernel applies a scheduled assignment; testbenches may
        call it directly)."""
        if value == self._value:
            return
        self._value = value
        for watcher in list(self._watchers):
            watcher(self)

    def __repr__(self) -> str:
        return f"Signal({self.name!r}, value={self._value!r})"
