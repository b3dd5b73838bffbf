"""Monte-Carlo statistics of the golden-model BER sweep.

Phase I of the methodology validates the behavioral receiver against a
high-level golden model ("the coherence with another high level
description language (Matlab) was checked ... we obtained BER curves
which perfectly overlapped the Matlab ones").  That golden model is
the staged :mod:`repro.link.pipeline`; its one chunk loop is
:func:`repro.link.pipeline.run_ber_sweep`, assembled from a spec (and
pilot-calibrated) by :func:`repro.link.ops.ber_sweep`.

This module keeps the statistics around that loop: Wilson intervals
(:func:`wilson_interval`), the adaptive stopping policy
(:class:`AdaptiveStopping`) and curve assembly (:class:`BerResult`).
The exact curve it is judged against lives apart, in
:mod:`repro.uwb.theory`.  ``core.serialization`` tags dataclasses by
``module:qualname``, so the path of :class:`BerResult` and
:class:`AdaptiveStopping` is part of every cached payload; they stay
here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

#: the standard normal quantile (inverse CDF).
_inv_normal_cdf = NormalDist().inv_cdf

#: memoized two-sided z-scores per confidence level: wilson_interval
#: sits inside the adaptive-stopping hot loop (called after every
#: Monte-Carlo chunk), so the inverse-normal CDF runs once per level.
_Z_SCORES: dict[float, float] = {}


def _wilson_z(confidence: float) -> float:
    """Two-sided z-score of *confidence*, memoized per level."""
    z = _Z_SCORES.get(confidence)
    if z is None:
        z = _Z_SCORES[confidence] = _inv_normal_cdf(0.5 + confidence / 2.0)
    return z


def wilson_interval(errors: int, bits: int,
                    confidence: float = 0.95) -> tuple[float, float]:
    """Wilson score confidence interval of a bit-error probability.

    The Wilson interval stays meaningful at the extremes Monte-Carlo
    BER estimation lives in - zero observed errors still yields a
    nonzero upper bound, which is exactly what an adaptive stopping
    rule needs at deep SNR.

    Args:
        errors / bits: the error counters.
        confidence: two-sided confidence level in (0, 1).

    Returns:
        ``(lower, upper)`` bounds on the error probability;
        ``(0.0, 1.0)`` when no bits have been observed.
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0, 1)")
    if bits < 0 or errors < 0 or errors > bits:
        raise ValueError("need 0 <= errors <= bits")
    if bits == 0:
        return 0.0, 1.0
    z = _wilson_z(confidence)
    p = errors / bits
    z2 = z * z
    denom = 1.0 + z2 / bits
    center = (p + z2 / (2.0 * bits)) / denom
    half = (z / denom) * math.sqrt(p * (1.0 - p) / bits
                                   + z2 / (4.0 * bits * bits))
    lo = 0.0 if errors == 0 else max(0.0, center - half)
    hi = 1.0 if errors == bits else min(1.0, center + half)
    return lo, hi


@dataclass(frozen=True)
class AdaptiveStopping:
    """Sequential stop-when-resolved policy for Monte-Carlo BER points.

    The fixed stopping rule of the BER sweep
    (``target_errors`` / ``max_bits``) wastes most of its symbol
    budget at deep SNR, where the error count never reaches the
    target.  This policy ends a point early once its estimate is
    *resolved* in either of two ways, checked after every chunk:

    * **precision**: at least ``min_errors`` errors have been counted
      and the Wilson half-width has shrunk below ``rel_half_width``
      times the estimate - the point is known accurately enough;
    * **floor**: the Wilson *upper* bound has dropped below
      ``ber_floor`` - the point is known to be below the BER of
      interest, so counting further (possibly zero) errors is wasted
      work.  ``0`` disables this exit.

    Attributes:
        confidence: two-sided confidence of the Wilson bounds.
        rel_half_width: precision target, relative to the estimate.
        min_errors: minimum error count before the precision exit is
            trusted (guards against lucky early chunks).
        ber_floor: BER resolution floor of the study.
    """

    confidence: float = 0.95
    rel_half_width: float = 0.33
    min_errors: int = 8
    ber_floor: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.confidence < 1.0:
            raise ValueError("confidence must be in (0, 1)")
        if not self.rel_half_width > 0.0:
            raise ValueError("rel_half_width must be > 0")
        if not self.min_errors >= 0:
            raise ValueError("min_errors must be >= 0")
        if not 0.0 <= self.ber_floor < 1.0:
            raise ValueError("ber_floor must be in [0, 1)")

    def resolved(self, errors: int, bits: int) -> bool:
        """Is ``errors/bits`` resolved under this policy?"""
        if bits <= 0:
            return False
        lo, hi = wilson_interval(errors, bits, self.confidence)
        if errors >= self.min_errors:
            p = errors / bits
            if (hi - lo) / 2.0 <= self.rel_half_width * p:
                return True
        return 0.0 < self.ber_floor and hi < self.ber_floor


@dataclass
class BerResult:
    """BER curve data.

    Attributes:
        ebn0_db: the Eb/N0 grid.
        ber: estimated bit-error rate per point.
        errors / bits: raw counters per point.
        label: legend label (integrator name by default).
        ci_low / ci_high: Wilson confidence bounds per point.
        confidence: confidence level of the bounds.
    """

    ebn0_db: np.ndarray
    ber: np.ndarray
    errors: np.ndarray
    bits: np.ndarray
    label: str = ""
    ci_low: np.ndarray | None = None
    ci_high: np.ndarray | None = None
    confidence: float = 0.95

    def format_table(self) -> str:
        """Per-point table including the Wilson bounds."""
        lines = [f"{'Eb/N0':>7s} {'BER':>12s} {'errors':>8s} "
                 f"{'bits':>9s} {'CI':>24s}"]
        for i, (e, b) in enumerate(zip(self.ebn0_db, self.ber)):
            ci = ""
            if self.ci_low is not None and self.ci_high is not None:
                ci = (f"[{self.ci_low[i]:.3e}, "
                      f"{self.ci_high[i]:.3e}]")
            lines.append(f"{e:>7.1f} {b:>12.4e} "
                         f"{int(self.errors[i]):>8d} "
                         f"{int(self.bits[i]):>9d} {ci:>24s}")
        return "\n".join(lines)


def _curve_result(ebn0_grid: np.ndarray, errors: np.ndarray,
                  bits: np.ndarray, label: str,
                  adaptive: AdaptiveStopping | None) -> BerResult:
    """Assemble per-point counters into a Wilson-bounded curve."""
    ber = errors / np.maximum(bits, 1)
    confidence = adaptive.confidence if adaptive is not None else 0.95
    bounds = np.array([wilson_interval(int(e), int(b), confidence)
                       if b else (0.0, 1.0)
                       for e, b in zip(errors, bits)])
    ci_low = bounds[:, 0] if len(bounds) else np.zeros(0)
    ci_high = bounds[:, 1] if len(bounds) else np.zeros(0)
    return BerResult(ebn0_db=ebn0_grid, ber=ber, errors=errors,
                     bits=bits, label=label, ci_low=ci_low,
                     ci_high=ci_high, confidence=confidence)

