"""Integrate & Dump model family across the methodology phases.

Each model exposes two complementary APIs:

* **vectorized**: :meth:`WindowIntegrator.window_outputs` integrates a
  batch of windows (any leading shape, samples on the last axis), each
  from a dumped (zero) state - the workhorse of the Monte-Carlo BER
  engine;
* **streaming**: :meth:`WindowIntegrator.make_state` returns a
  per-sample integrate/hold/dump state for the AMS kernel path.

Models:

========================  ======  =============================================
class                     phase   description
========================  ======  =============================================
IdealIntegrator           II      ``vo' = K vin`` (the paper's IDEAL listing)
TwoPoleIntegrator         IV      gain + two poles (the paper's VHDL-AMS model)
CircuitSurrogateIntegrator III*   two poles + the *measured* static input
                                  nonlinearity of the transistor circuit -
                                  the fast stand-in for ELDO-in-the-loop
                                  used by BER/TWR sweeps (true co-simulation
                                  lives in ``repro.uwb.system``)
========================  ======  =============================================
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np
from scipy import signal as _signal

from repro.ams.equations import (
    GatedIntegratorState,
    TwoPoleGatedIntegratorState,
)


def nominal_gain(integrator) -> float | None:
    """The nominal (ideal-equivalent) integration constant of a model:
    ``ideal_k`` if exposed, else ``k``, else ``None``.  The single
    lookup every AGC-sizing path shares."""
    k = getattr(integrator, "ideal_k", None)
    if k is None:
        k = getattr(integrator, "k", None)
    return float(k) if k is not None else None


class WindowIntegrator:
    """Common interface of the behavioral integrator models."""

    #: methodology phase the model belongs to (for reports).
    phase = "II"
    name = "integrator"

    def window_outputs(self, x: np.ndarray, dt: float, *,
                       overwrite_x: bool = False) -> np.ndarray:
        """Integrator output at the end of each window.

        Args:
            x: input windows, samples along the last axis.
            dt: sample period.
            overwrite_x: the model may use *x* as scratch space (its
                contents are undefined afterwards).

        Returns:
            Array of ``x.shape[:-1]`` final values.
        """
        raise NotImplementedError

    def linear_weights(self, n: int, dt: float) -> np.ndarray | None:
        """Weights ``g`` with ``window_outputs(x, dt) == x @ g`` over
        *n*-sample windows, or ``None`` when the model is not linear in
        its input.  The BER sweep grades a linear model from three
        weighted reductions per slot instead of one squared batch per
        noise scale (see :class:`repro.link.pipeline.DecisionStage`)."""
        return None

    def response(self, x: np.ndarray, dt: float) -> np.ndarray:
        """Full output trajectory over each window (same shape as x)."""
        raise NotImplementedError

    def make_state(self):
        """A streaming integrate/hold/dump state for the AMS path."""
        raise NotImplementedError

    def describe(self) -> str:
        return f"{type(self).__name__} (phase {self.phase})"


class IdealIntegrator(WindowIntegrator):
    """Phase-II ideal gated integrator ``vo' = K * vin``.

    Args:
        k: integration constant (1/s).  ``K = gain * 2*pi*fp1`` makes it
            the ideal limit of the two-pole model.
    """

    phase = "II"
    name = "ideal"

    #: Default K equals the two-pole model's ``gain * 2*pi*fp1`` so the
    #: phase-II and phase-IV models agree in their common linear regime
    #: (window << 1/fp1) and AGC policies target the same level.
    DEFAULT_K = 10.0 ** (21.0 / 20.0) * 2.0 * math.pi * 0.886e6

    def __init__(self, k: float | None = None):
        if k is None:
            k = self.DEFAULT_K
        if k <= 0:
            raise ValueError("k must be positive")
        self.k = float(k)

    @property
    def ideal_k(self) -> float:
        """Uniform accessor shared with the two-pole models."""
        return self.k

    def window_outputs(self, x: np.ndarray, dt: float, *,
                       overwrite_x: bool = False) -> np.ndarray:
        return self.k * dt * np.sum(x, axis=-1)

    def linear_weights(self, n: int, dt: float) -> np.ndarray:
        return np.full(n, self.k * dt)

    def response(self, x: np.ndarray, dt: float) -> np.ndarray:
        return self.k * dt * np.cumsum(x, axis=-1)

    def make_state(self) -> GatedIntegratorState:
        return GatedIntegratorState(self.k)


class TwoPoleIntegrator(WindowIntegrator):
    """Phase-IV behavioral model: DC gain + two real poles.

    This is the paper's pair of coupled differential equations::

        vin - 1/(2 pi fp1) vq' - vq == 0
        G vq - 1/(2 pi fp2) vo' - vo == 0

    discretized with the bilinear transform for the vectorized API and
    with trapezoidal one-pole states for the streaming API (identical
    mathematics).

    Args:
        gain: DC gain (linear; paper: 10**(21/20)).
        fp1_hz / fp2_hz: pole frequencies (paper: 0.886 MHz, 5.895 GHz).
        input_nonlinearity: optional static pre-distortion f(vin)
            (vectorized callable); used by the circuit surrogate.
    """

    phase = "IV"
    name = "two_pole"

    def __init__(self, gain: float = 10.0 ** (21.0 / 20.0),
                 fp1_hz: float = 0.886e6, fp2_hz: float = 5.895e9,
                 input_nonlinearity: Callable[[np.ndarray], np.ndarray]
                 | None = None):
        if gain <= 0 or fp1_hz <= 0 or fp2_hz <= 0:
            raise ValueError("gain and poles must be positive")
        self.gain = float(gain)
        self.fp1_hz = float(fp1_hz)
        self.fp2_hz = float(fp2_hz)
        self.input_nonlinearity = input_nonlinearity
        # Derived filter data: bilinear coefficients per sample period
        # and window weights per (window length, sample period).
        self._filter_cache: dict = {}

    @property
    def ideal_k(self) -> float:
        """The equivalent ideal integration constant ``G * 2 pi fp1``."""
        return self.gain * 2.0 * math.pi * self.fp1_hz

    def __getstate__(self) -> dict:
        # The lazily-built filter cache (coefficients and window
        # weights) is derived state: dropping it keeps pickles small
        # for process fan-out and, more importantly, keeps the
        # campaign content hash of a model independent of whether it
        # has been run yet.
        state = dict(self.__dict__)
        state["_filter_cache"] = {}
        return state

    def _coeffs(self, dt: float) -> tuple[np.ndarray, np.ndarray]:
        try:
            return self._filter_cache[dt]
        except KeyError:
            pass
        w1 = 2.0 * math.pi * self.fp1_hz
        w2 = 2.0 * math.pi * self.fp2_hz
        num = [self.gain * w1 * w2]
        den = [1.0, w1 + w2, w1 * w2]
        b, a = _signal.bilinear(num, den, fs=1.0 / dt)
        self._filter_cache[dt] = (b, a)
        return b, a

    def weights(self, n: int, dt: float) -> np.ndarray:
        """The reversed impulse response of the two-pole filter over an
        *n*-sample window (read-only, memoized): the final value of
        ``lfilter`` from a dumped state is ``x @ weights(n, dt)``."""
        try:
            return self._filter_cache[n, dt]
        except KeyError:
            pass
        b, a = self._coeffs(dt)
        impulse = np.zeros(n)
        impulse[0] = 1.0
        g = np.ascontiguousarray(_signal.lfilter(b, a, impulse)[::-1])
        g.setflags(write=False)
        self._filter_cache[n, dt] = g
        return g

    def linear_weights(self, n: int, dt: float) -> np.ndarray | None:
        if self.input_nonlinearity is not None:
            return None
        return self.weights(n, dt)

    def _pre(self, x: np.ndarray, overwrite_x: bool = False
             ) -> np.ndarray:
        f = self.input_nonlinearity
        if f is None:
            return x
        if overwrite_x and getattr(f, "writes_out", False):
            return f(x, out=x)
        return f(x)

    def window_outputs(self, x: np.ndarray, dt: float, *,
                       overwrite_x: bool = False) -> np.ndarray:
        y = self._pre(x, overwrite_x)
        g = self.weights(x.shape[-1], dt)
        if y.dtype == g.dtype:
            return y @ g
        # Narrower windows (the BER decider's float32 rows) sum in
        # float64: einsum casts them block by block, where matmul would
        # cast the whole batch first.
        return np.einsum("...i,i->...", y, g)

    def response(self, x: np.ndarray, dt: float) -> np.ndarray:
        b, a = self._coeffs(dt)
        return _signal.lfilter(b, a, self._pre(x), axis=-1)

    def make_state(self) -> TwoPoleGatedIntegratorState:
        return TwoPoleGatedIntegratorState(
            self.gain, self.fp1_hz, self.fp2_hz,
            input_nonlinearity=self.input_nonlinearity)


class SoftLimiter:
    """Tanh-like soft input limiter ``f(v) = s * tanh(v / s)``.

    A picklable callable (unlike a closure), so integrator models using
    it can cross process boundaries in :class:`~repro.core.scenario`
    sweeps.
    """

    #: accepts NumPy arrays - safe for segment-vectorized execution.
    vectorized = True
    #: takes ``out=`` (which may be its input), like a ufunc.
    writes_out = True

    def __init__(self, scale: float):
        if scale <= 0:
            raise ValueError("scale must be positive")
        self.scale = float(scale)

    def __call__(self, v: np.ndarray, out: np.ndarray | None = None
                 ) -> np.ndarray:
        out = np.divide(v, self.scale, out=out)
        if not isinstance(out, np.ndarray):
            return self.scale * np.tanh(out)
        # One buffer for the whole limiter (fresh, or the caller's
        # *out*): tanh and the rescale run in place on the quotient,
        # in its dtype.
        np.tanh(out, out=out)
        out *= self.scale
        return out

    def __repr__(self) -> str:
        return f"SoftLimiter(scale={self.scale:g})"


class TabulatedNonlinearity:
    """Interpolating static nonlinearity from measured points (clamping
    outside the measured range).  Picklable callable."""

    #: accepts NumPy arrays - safe for segment-vectorized execution.
    vectorized = True

    def __init__(self, vin: np.ndarray, f_of_vin: np.ndarray):
        vin = np.asarray(vin, dtype=float)
        f_of_vin = np.asarray(f_of_vin, dtype=float)
        if vin.ndim != 1 or vin.shape != f_of_vin.shape:
            raise ValueError("vin and f_of_vin must be matching 1-D "
                             "arrays")
        if np.any(np.diff(vin) <= 0):
            raise ValueError("vin grid must be strictly increasing")
        self.vin = vin
        self.f_of_vin = f_of_vin

    def __call__(self, v: np.ndarray) -> np.ndarray:
        return np.interp(v, self.vin, self.f_of_vin)

    def __repr__(self) -> str:
        return f"TabulatedNonlinearity({len(self.vin)} points)"


class CircuitSurrogateIntegrator(TwoPoleIntegrator):
    """Circuit-calibrated behavioral model (the fast ELDO stand-in).

    Identical structure to :class:`TwoPoleIntegrator` but *always*
    carries an input compression nonlinearity - by default the tanh-like
    soft limit of the paper's ~100 mV linear input range, or, better, a
    table extracted from a DC sweep of the transistor netlist via
    :func:`repro.core.characterize.extract_nonlinearity`.
    """

    phase = "III"
    name = "circuit"

    def __init__(self, gain: float = 10.0 ** (21.0 / 20.0),
                 fp1_hz: float = 0.886e6, fp2_hz: float = 5.895e9,
                 input_nonlinearity: Callable[[np.ndarray], np.ndarray]
                 | None = None):
        if input_nonlinearity is None:
            input_nonlinearity = SoftLimiter(0.1)
        super().__init__(gain=gain, fp1_hz=fp1_hz, fp2_hz=fp2_hz,
                         input_nonlinearity=input_nonlinearity)


def tabulated_nonlinearity(vin: np.ndarray, f_of_vin: np.ndarray
                           ) -> Callable[[np.ndarray], np.ndarray]:
    """Build an interpolating static nonlinearity from measured points
    (clamping outside the measured range; picklable)."""
    return TabulatedNonlinearity(vin, f_of_vin)
