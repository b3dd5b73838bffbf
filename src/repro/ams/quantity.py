"""Analog quantities (the VHDL-AMS side of the kernel)."""

from __future__ import annotations


class Quantity:
    """A continuous-valued node updated once per analog step.

    Exactly one :class:`~repro.ams.block.AnalogBlock` may drive a
    quantity; any number of blocks and processes may read it.  The kernel
    checks single-driver ownership at registration time.
    """

    __slots__ = ("name", "value", "init", "_driver")

    def __init__(self, name: str, init: float = 0.0):
        self.name = name
        self.init = float(init)
        self.value = float(init)
        self._driver = None

    def reset(self) -> None:
        """Restore the initial value (kernel reset contract)."""
        self.value = self.init

    def _claim(self, driver) -> None:
        if self._driver is not None and self._driver is not driver:
            raise RuntimeError(
                f"quantity {self.name!r} already driven by "
                f"{self._driver!r}; cannot also be driven by {driver!r}")
        self._driver = driver

    def __float__(self) -> float:
        return self.value

    def __repr__(self) -> str:
        return f"Quantity({self.name!r}, value={self.value:.6g})"
