"""Reusable ODE states for behavioral analog models.

These helpers implement, with trapezoidal integration, the
"simultaneous statements" the paper writes in VHDL-AMS:

* Phase II ideal gated integrator::

      if sel='1' use vo'Dot == vin*K; else vo == 0.0; end use;

  -> :class:`GatedIntegratorState`

* Phase IV two-pole behavioral model::

      if sel='1' use
        vin - 1/(2*pi*fp1) * vq'Dot - vq == 0;
        G * vq - 1/(2*pi*fp2) * vo'Dot - vo == 0;
      else vq == 0.0; vo == 0.0; end use;

  -> :class:`TwoPoleGatedIntegratorState`

plus a plain :class:`OnePoleState` low-pass used by front-end models.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.iir import SectionFilter


class OnePoleState:
    """First-order low-pass ``tau*y' + y = gain*x`` (trapezoidal).

    Args:
        pole_hz: pole frequency (``tau = 1 / (2*pi*pole_hz)``).
        gain: DC gain.
    """

    def __init__(self, pole_hz: float, gain: float = 1.0):
        if pole_hz <= 0:
            raise ValueError("pole_hz must be positive")
        self.tau = 1.0 / (2.0 * math.pi * pole_hz)
        self.gain = gain
        self.y = 0.0
        self._x_prev = 0.0
        # (dt, filter) of the last update_block: the block filter is
        # derived from dt, and a run keeps one step size.
        self._block: tuple[float, SectionFilter] | None = None

    def update(self, x: float, dt: float) -> float:
        """Advance one step with input *x*; returns the new output."""
        # Trapezoidal discretization of tau*y' + y = g*x:
        # (tau/dt + 1/2) y_new = (tau/dt - 1/2) y_old + g (x_new + x_old)/2
        a = self.tau / dt
        y_new = ((a - 0.5) * self.y
                 + 0.5 * self.gain * (x + self._x_prev)) / (a + 0.5)
        self.y = y_new
        self._x_prev = x
        return y_new

    def update_block(self, x: np.ndarray, dt: float) -> np.ndarray:
        """Advance *len(x)* steps at once (same recurrence, evaluated as
        a first-order IIR filter seeded with the current state)."""
        x = np.asarray(x, dtype=float)
        a = self.tau / dt
        denom = a + 0.5
        c1 = (a - 0.5) / denom          # y[k] = c1*y[k-1]
        b0 = 0.5 * self.gain / denom    # + b0*(x[k] + x[k-1])
        if self._block is None or self._block[0] != dt:
            self._block = (dt, SectionFilter([([b0, b0], [1.0, -c1])]))
        zi = np.array([b0 * self._x_prev + c1 * self.y])
        y, _zf = self._block[1](x, zi)
        self.y = float(y[-1])
        self._x_prev = float(x[-1])
        return y

    def reset(self, value: float = 0.0) -> None:
        self.y = value
        self._x_prev = value / self.gain if self.gain else 0.0


class GatedIntegratorState:
    """Phase-II ideal gated integrator: ``vo' = K*vin`` while enabled,
    ``vo = 0`` when dumped, and hold otherwise.

    The three-state control mirrors the circuit's integrate/hold/dump:

    * ``integrate(vin, dt)``: accumulate,
    * ``hold()``: keep the value (ADC conversion window),
    * ``dump()``: reset to zero.
    """

    def __init__(self, k: float):
        self.k = float(k)
        self.vo = 0.0
        self._vin_prev = 0.0

    def integrate(self, vin: float, dt: float) -> float:
        self.vo += 0.5 * self.k * dt * (vin + self._vin_prev)
        self._vin_prev = vin
        return self.vo

    def integrate_block(self, vin: np.ndarray, dt: float) -> np.ndarray:
        """Integrate *len(vin)* consecutive samples at once.

        Reproduces the exact floating-point addition sequence of the
        scalar :meth:`integrate` loop (cumulative sum seeded with the
        running output), so compiled and lock-step runs agree bit for
        bit.
        """
        vin = np.asarray(vin, dtype=float)
        n = len(vin)
        prev = np.empty(n)
        prev[0] = self._vin_prev
        prev[1:] = vin[:-1]
        np.add(prev, vin, out=prev)
        np.multiply(prev, 0.5 * self.k * dt, out=prev)
        out = np.empty(n + 1)
        out[0] = self.vo
        out[1:] = prev
        out.cumsum(out=out)
        self.vo = float(out[-1])
        self._vin_prev = float(vin[-1])
        return out[1:]

    def hold(self) -> float:
        self._vin_prev = 0.0
        return self.vo

    def dump(self) -> float:
        self.vo = 0.0
        self._vin_prev = 0.0
        return self.vo


class TwoPoleGatedIntegratorState:
    """Phase-IV behavioral model: gain + two poles while integrating.

    While enabled the signal path is ``vin -> LP(fp1) -> *gain ->
    LP(fp2)``, which is exactly the paper's pair of coupled first-order
    differential equations; ``dump`` forces both states to zero, and
    ``hold`` freezes them (switches open).

    Optionally an input static nonlinearity (compression of the limited
    linear input range - what the paper's own Phase IV model *omits* and
    what its figure-5 discussion blames for the residual mismatch) can be
    installed via *input_nonlinearity*.
    """

    def __init__(self, gain: float, fp1_hz: float, fp2_hz: float,
                 input_nonlinearity=None):
        self.gain = float(gain)
        self.lp1 = OnePoleState(fp1_hz, gain=1.0)
        self.lp2 = OnePoleState(fp2_hz, gain=self.gain)
        self.input_nonlinearity = input_nonlinearity

    def vectorizable(self) -> bool:
        """Whether :meth:`integrate_block` is safe: the nonlinearity, if
        any, must declare array support via a truthy ``vectorized``
        attribute (scalar-only callables keep the block lock-step)."""
        return (self.input_nonlinearity is None
                or bool(getattr(self.input_nonlinearity, "vectorized",
                                False)))

    @property
    def vo(self) -> float:
        return self.lp2.y

    def integrate(self, vin: float, dt: float) -> float:
        if self.input_nonlinearity is not None:
            vin = self.input_nonlinearity(vin)
        vq = self.lp1.update(vin, dt)
        return self.lp2.update(vq, dt)

    def integrate_block(self, vin: np.ndarray, dt: float) -> np.ndarray:
        """Integrate *len(vin)* consecutive samples at once (the two
        one-pole recurrences run as IIR filters seeded with the current
        states; the nonlinearity, if any, must be vectorized)."""
        vin = np.asarray(vin, dtype=float)
        if self.input_nonlinearity is not None:
            vin = self.input_nonlinearity(vin)
        vq = self.lp1.update_block(vin, dt)
        return self.lp2.update_block(vq, dt)

    def hold(self) -> float:
        return self.lp2.y

    def dump(self) -> float:
        self.lp1.reset(0.0)
        self.lp2.reset(0.0)
        return 0.0
