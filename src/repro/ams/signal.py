"""Digital signals (the VHDL side of the kernel)."""

from __future__ import annotations

from typing import Any


class Signal:
    """An event-driven signal carrying an arbitrary Python value.

    Signals are owned by the :class:`~repro.ams.kernel.Simulator` that
    creates them.  Assignments are scheduled through the simulator's
    event queue (``after`` models VHDL's ``after`` clause); immediate
    assignments still go through a delta cycle so all events of the same
    instant observe a consistent value.
    """

    def __init__(self, name: str, init: Any = 0):
        self.name = name
        self._init = init
        self._value = init
        self._sim = None  # set on registration

    def reset(self) -> None:
        """Restore the initial value - the kernel reset contract."""
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

    def assign(self, value: Any, after: float = 0.0) -> None:
        """Schedule ``signal <= value after <delay>`` (delta cycle for
        ``after=0``)."""
        if self._sim is None:
            raise RuntimeError(
                f"signal {self.name!r} is not registered with a simulator")
        self._sim._schedule_signal(self, value, after)

    def force(self, value: Any) -> None:
        """Set the value immediately (how the kernel applies a scheduled
        assignment; testbenches may call it directly)."""
        self._value = value

    def __repr__(self) -> str:
        return f"Signal({self.name!r}, value={self._value!r})"
