"""Quantizing ADC model.

Phase II "modeled the effects which have a relevant impact on the
system-level performance (quantization effects of the ADC ...)"; this is
that model: a uniform mid-rise quantizer with saturation, its
auto-ranged variant, and the 2-PPM slot decision every receiver path
takes through them (:func:`decide_slots`).
"""

from __future__ import annotations

import numpy as np


class Adc:
    """Uniform N-bit ADC over ``[0, vref]`` (unipolar: integrated
    energies are non-negative).

    Args:
        bits: resolution.
        vref: full-scale input.
    """

    def __init__(self, bits: int = 5, vref: float = 1.0):
        if bits < 1:
            raise ValueError("bits must be >= 1")
        if vref <= 0:
            raise ValueError("vref must be positive")
        self.bits = int(bits)
        self.vref = float(vref)

    @property
    def levels(self) -> int:
        return 1 << self.bits

    @property
    def lsb(self) -> float:
        return self.vref / self.levels

    def convert(self, value):
        """Quantize to integer codes ``0 .. 2**bits - 1`` (saturating)."""
        codes = np.floor(np.asarray(value, dtype=float) / self.lsb)
        codes = np.clip(codes, 0, self.levels - 1)
        if np.isscalar(value) or np.ndim(value) == 0:
            return int(codes)
        return codes.astype(np.int64)

    def to_voltage(self, code):
        """Mid-step reconstruction voltage of a code."""
        return (np.asarray(code) + 0.5) * self.lsb

    def quantize(self, value):
        """Round-trip convert + reconstruct (the analog-visible effect)."""
        return self.to_voltage(self.convert(value))


class AutoRangingAdc:
    """Uniform N-bit ADC whose full scale tracks the peak of the values
    it is handed (5 % headroom) - the stand-in for a converged AGC.

    Args:
        bits: resolution.
    """

    def __init__(self, bits: int):
        self.bits = int(bits)

    def quantize(self, values):
        """Round-trip through an :class:`Adc` ranged on *values*."""
        values = np.asarray(values, dtype=float)
        peak = float(np.max(values)) if values.size else 1.0
        return Adc(self.bits, vref=max(peak, 1e-12) * 1.05).quantize(values)


def decide_slots(values, quantizer: Adc | AutoRangingAdc | None = None
                 ) -> tuple[np.ndarray, np.ndarray]:
    """The 2-PPM decision: bit 1 where slot 1 beats slot 0.

    Args:
        values: integrated slot energies, shape ``(..., 2)``.
        quantizer: converter the slots pass through before the
            comparison (``None`` compares the raw values).

    Returns:
        ``(values, bits)``: the compared (post-converter) slot values
        and one int8 decision per symbol.
    """
    if quantizer is not None:
        values = quantizer.quantize(values)
    return values, (values[..., 1] > values[..., 0]).astype(np.int8)
