"""Behavioral RF front end: the DAC-stepped VGA.

A Phase-II style model: linear gain with saturation ("saturation in the
various stages" is one of the effects the paper keeps even in the ideal
architecture), quantized in DAC steps because "its gain is controlled
in steps using a DA converter within the AGC block".
"""

from __future__ import annotations

import math

import numpy as np


class Vga:
    """Variable-gain amplifier with DAC-quantized gain steps.

    Args:
        step_db: gain quantum (the AGC DAC's LSB).
        min_db / max_db: programmable range.
        sat: output saturation (V).
    """

    def __init__(self, step_db: float = 2.0, min_db: float = 0.0,
                 max_db: float = 40.0, sat: float | None = 0.9):
        if step_db <= 0:
            raise ValueError("step_db must be positive")
        if max_db < min_db:
            raise ValueError("max_db must be >= min_db")
        self.step_db = float(step_db)
        self.min_db = float(min_db)
        self.max_db = float(max_db)
        self.sat = sat
        self._code = 0

    @property
    def n_codes(self) -> int:
        return int(math.floor((self.max_db - self.min_db)
                              / self.step_db)) + 1

    @property
    def code(self) -> int:
        return self._code

    @property
    def gain_db(self) -> float:
        return self.min_db + self._code * self.step_db

    @property
    def gain(self) -> float:
        return 10.0 ** (self.gain_db / 20.0)

    def set_code(self, code: int) -> None:
        """Program the DAC code (clamped to the valid range)."""
        self._code = int(np.clip(code, 0, self.n_codes - 1))

    def __call__(self, x: np.ndarray) -> np.ndarray:
        y = self.gain * np.asarray(x, dtype=float)
        if self.sat is not None:
            y = np.clip(y, -self.sat, self.sat)
        return y
