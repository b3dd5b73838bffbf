"""Linear IIR filters on NumPy alone: Butterworth band-pass design, the
bilinear transform and one block state-space filter kernel.

The receiver's band-pass, the two-pole integrator's window filter, the
one-pole front-end states and the exact-BER oracle all run through
:class:`SectionFilter`.  Nothing here imports from ``repro``.

**Design.** :func:`butter_bandpass` is SciPy's ``butter(order, wn,
btype="bandpass", output="sos")`` path (analog Butterworth prototype,
low-pass to band-pass, bilinear transform, nearest-pole pairing into
second-order sections) and :func:`bilinear` is SciPy's ``bilinear``;
both repeat SciPy's floating-point operations in SciPy's order, so their
coefficients equal SciPy's bit for bit (checked by the tests, where
SciPy's filter functions are the reference).

**Filtering.** :class:`SectionFilter` runs a cascade of ``(b, a)``
sections as one state-space system ``s' = A s + B x``, ``y = C s + D x``
whose state is each section's transposed-direct-form-II state in
section order, so initial and final states mean what ``zi``/``zf`` mean
to SciPy's ``lfilter`` and ``sosfilt``.  The signal is cut into
blocks of :data:`BLOCK` samples (the block realization of C. S. Burrus,
"Block realization of digital filters", *IEEE Trans. Audio
Electroacoust.* 20:230-235, 1972): one matrix product gives every
block's zero-state output and the state increment it causes, a scan
carries the state from block to block, and a second product adds each
block's zero-input response.  The scan is blocked the same way: one
product folds each run of :data:`SCAN_FANOUT` steps into a step of the
next level, recursively, and one more expands each level's start states
back.  The output is linear in the input like ``sosfilt``'s and differs
from it by rounding only (about 1e-15 of the peak).

A call streams along the last axis in passes of :data:`STREAM_BLOCK`
samples, each a fixed few dozen NumPy calls whatever its length.  Every
matrix product is one NumPy call over a stack of BLAS products, each
small enough (:data:`BLAS_ONE_THREAD`) that OpenBLAS keeps it on the
calling thread, and the stack runs with the GIL released: the link
pipeline's two threads filter at the same time, and few calls means
few hand-offs of the GIL between them.  With ``out=x`` a float64 array is filtered in
place: no second array of its size is allocated.  The precomputed block
matrices are read-only and every call allocates its own work arrays, so
one filter can run on several threads at once; they are derived from
the coefficients and left out of pickles.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

#: samples per block of the block realization.
BLOCK = 32

#: block states folded into one step of the blocked scan.
SCAN_FANOUT = 8

#: OpenBLAS runs a product ``(m, k) @ (k, n)`` on one thread while
#: ``m * n * k`` stays at or below this (its default
#: ``GEMM_MULTITHREAD_THRESHOLD`` of 4 times 65536).
BLAS_ONE_THREAD = 4 * 65536

#: samples per streamed pass (512 KiB of float64), a multiple of
#: :data:`BLOCK`.
STREAM_BLOCK = 1 << 16


# -- design -----------------------------------------------------------

def butter_bandpass(order: int, wn: tuple[float, float]) -> np.ndarray:
    """Second-order sections of a digital Butterworth band-pass.

    Args:
        order: prototype order (the band-pass has ``2 * order`` poles).
        wn: (low, high) band edges as fractions of the Nyquist rate.

    Returns:
        ``(order, 6)`` rows ``b0 b1 b2 a0 a1 a2``, equal to SciPy's
        ``butter(order, wn, btype="bandpass", output="sos")``.
    """
    wn = np.asarray(wn, dtype=np.float64)
    if order < 1 or wn.shape != (2,) or not 0.0 < wn[0] < wn[1] < 1.0:
        raise ValueError("need order >= 1 and 0 < low < high < 1")
    # Analog prototype: poles on the unit circle, no zeros, unit gain.
    m = np.arange(-order + 1, order, 2, dtype=np.float64)
    p = -np.exp(1j * np.pi * m / (2 * order))
    # Pre-warp the band edges (the bilinear transform below uses fs=2).
    fs = 2.0
    warped = 2 * fs * np.tan(np.pi * wn / fs)
    bw = float(warped[1] - warped[0])
    wo = float(np.sqrt(warped[0] * warped[1]))
    # Low-pass to band-pass: each pole splits in two, and *order*
    # zeros land at the origin (as many stay at infinity).
    p_lp = p * bw/2
    p = np.concatenate((p_lp + np.sqrt(p_lp**2 - wo**2),
                        p_lp - np.sqrt(p_lp**2 - wo**2)))
    k = 1.0 * bw**order
    # Bilinear transform: the zeros at the origin go to z = 1, those at
    # infinity to Nyquist (z = -1).
    fs2 = 2.0 * fs
    k = k * np.real(fs2**order / np.prod(fs2 - p))
    z = np.concatenate((np.ones(order), -np.ones(order)))
    p = (fs2 + p) / (fs2 - p)
    return _zpk2sos(z, p, k)


def _zpk2sos(z: np.ndarray, p: np.ndarray, k: float) -> np.ndarray:
    """SciPy's ``zpk2sos(z, p, k)`` with the digital ``"nearest"``
    pairing, for the band-pass's real zeros and its poles, which come in
    conjugate or real pairs."""
    z = np.sort(z)
    p = np.concatenate(_cplxreal(p))

    def idx_worst(q):
        # The pole closest to the unit circle.
        return np.argmin(np.abs(1 - np.abs(q)))

    def take_nearest_zero(to):
        nonlocal z
        i = np.argsort(np.abs(z - to))[0]
        zero, z = z[i], np.delete(z, i)
        return zero

    sos = np.zeros((len(z) // 2, 6))
    # Build from the last section back, so the worst poles come last.
    for si in range(len(sos) - 1, -1, -1):
        p1_idx = idx_worst(p)
        p1 = p[p1_idx]
        p = np.delete(p, p1_idx)
        if np.isreal(p1):
            prealidx = np.flatnonzero(np.isreal(p))
            p2_idx = prealidx[idx_worst(p[prealidx])]
            p2 = p[p2_idx]
            p = np.delete(p, p2_idx)
        else:
            p2 = p1.conj()
        z1 = take_nearest_zero(p1)
        sos[si] = _section([z1, take_nearest_zero(p1)], [p1, p2])
    sos[0][:3] *= k
    return sos


def _cplxreal(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """SciPy's ``_cplxreal`` for conjugate-paired *z*: one member of
    each conjugate pair (the positive-imaginary one, averaged with its
    partner) and the real values, each sorted."""
    tol = 100 * np.finfo((1.0 * z).dtype).eps
    z = z[np.lexsort((abs(z.imag), z.real))]
    real_indices = abs(z.imag) <= tol * abs(z)
    zr = z[real_indices].real
    if len(zr) == len(z):
        return np.array([]), zr
    z = z[~real_indices]
    zp = z[z.imag > 0]
    zn = z[z.imag < 0]
    # Runs of (nearly) equal real part are sorted by imaginary part.
    same_real = np.diff(zp.real) <= tol * abs(zp[:-1])
    diffs = np.diff(np.concatenate(([0], same_real, [0])))
    run_starts = np.nonzero(diffs > 0)[0]
    run_stops = np.nonzero(diffs < 0)[0]
    for start, stop in zip(run_starts, run_stops + 1):
        for chunk in (zp[start:stop], zn[start:stop]):
            chunk[...] = chunk[np.lexsort([abs(chunk.imag)])]
    return (zp + zn.conj()) / 2, zr


def _poly(roots) -> np.ndarray:
    """Monic polynomial with *roots* (real when they pair up)."""
    roots = np.asarray(roots)
    a = np.ones(1, dtype=roots.dtype)
    for r in roots:
        a = np.convolve(a, np.stack((np.ones_like(r), -r)))
    if np.iscomplexobj(a):
        c = roots.astype(complex)
        if np.all(np.sort(c.imag) == np.sort(c.conj().imag)):
            a = a.real.copy()
    return a


def _section(z, p) -> np.ndarray:
    """One ``b0 b1 b2 a0 a1 a2`` row with zeros *z* and poles *p*."""
    return np.concatenate((_poly(z), _poly(p)))


def bilinear(b, a, fs: float) -> tuple[np.ndarray, np.ndarray]:
    """Digital ``(b, a)`` of the analog transfer function ``b(s)/a(s)``
    by the bilinear transform at sample rate *fs*; equal to
    SciPy's ``bilinear(b, a, fs)`` (normalized so ``a[0] == 1``)."""
    b = np.trim_zeros(np.atleast_1d(np.asarray(b, dtype=float)), "f")
    a = np.trim_zeros(np.atleast_1d(np.asarray(a, dtype=float)), "f")
    # s -> (z - 1) fac / ((z + 1) / fac), the factor 2 fs split between
    # the two; coefficients in ascending powers of z.
    fac = np.sqrt(fs * 2)
    zp1 = np.array([1.0, 1.0]) / fac
    zm1 = np.array([-1.0, 1.0]) * fac
    n = max(len(a), len(b)) - 1

    def power(c: np.ndarray, k: int) -> np.ndarray:
        out = np.ones(1) if k == 0 else c
        for _ in range(k - 1):
            out = np.convolve(out, c)
        return out

    def substitute(c: np.ndarray) -> np.ndarray:
        total = 0
        for q, cq in enumerate(c[::-1]):
            total = total + np.convolve(cq * power(zp1, n - q),
                                        power(zm1, q))
        return total[::-1]

    num, den = substitute(b), substitute(a)
    return num / den[0], den / den[0]


# -- filtering --------------------------------------------------------

def _df2t(b, a) -> tuple[np.ndarray, ...]:
    """``(A, B, C, D)`` of one section in transposed direct form II."""
    b = np.atleast_1d(np.asarray(b, dtype=float))
    a = np.atleast_1d(np.asarray(a, dtype=float))
    if a[0] == 0.0:
        raise ValueError("a[0] must be nonzero")
    n = max(len(a), len(b))
    b = np.pad(b, (0, n - len(b))) / a[0]
    a = np.pad(a, (0, n - len(a))) / a[0]
    order = n - 1
    big_a = np.eye(order, k=1)
    big_a[:, 0] = -a[1:]
    return (big_a, b[1:] - a[1:] * b[0], np.eye(1, order)[0], b[0])


def _cascade(first, second) -> tuple[np.ndarray, ...]:
    """State space of *first* followed by *second* (states stacked)."""
    a1, b1, c1, d1 = first
    a2, b2, c2, d2 = second
    n1, n2 = len(b1), len(b2)
    a = np.zeros((n1 + n2, n1 + n2))
    a[:n1, :n1] = a1
    a[n1:, :n1] = np.outer(b2, c1)
    a[n1:, n1:] = a2
    return (a, np.concatenate((b1, b2 * d1)),
            np.concatenate((d2 * c1, c2)), d2 * d1)


def _frozen(x: np.ndarray) -> np.ndarray:
    x = np.ascontiguousarray(x)
    x.setflags(write=False)
    return x


def _product(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> None:
    """``out[:] = a @ b`` for C-contiguous 2-D *a* and *out*, as one
    stacked product of single-threaded BLAS calls (plus one for the
    leftover rows): few NumPy calls, each releasing the GIL."""
    k, n = b.shape
    rows = max(1, BLAS_ONE_THREAD // (k * n))
    whole = len(a) - len(a) % rows
    if whole:
        np.matmul(a[:whole].reshape(-1, rows, k), b,
                  out=out[:whole].reshape(-1, rows, n))
    if whole < len(a):
        np.matmul(a[whole:], b, out=out[whole:])


class SectionFilter:
    """A cascade of ``(b, a)`` sections, run block by block in state
    space (module docstring).

    Args:
        sections: ``(b, a)`` coefficient pairs in signal order; each
            ``a[0]`` must be nonzero.
    """

    def __init__(self, sections: Sequence[tuple]):
        self.sections = tuple((np.array(b, dtype=float),
                               np.array(a, dtype=float))
                              for b, a in sections)
        if not self.sections:
            raise ValueError("need at least one section")
        self._build()

    @classmethod
    def from_sos(cls, sos: np.ndarray) -> "SectionFilter":
        """The cascade of SciPy-style ``b0 b1 b2 a0 a1 a2`` rows."""
        return cls([(row[:3], row[3:]) for row in np.atleast_2d(sos)])

    def __getstate__(self) -> dict:
        # The block matrices are derived from the coefficients: pickles
        # carry the coefficients only.
        return {"sections": self.sections}

    def __setstate__(self, state: dict) -> None:
        self.sections = state["sections"]
        self._build()

    def _build(self) -> None:
        system = None
        for b, a in self.sections:
            part = _df2t(b, a)
            system = part if system is None else _cascade(system, part)
        big_a, big_b, big_c, d = system
        n, L = len(big_b), BLOCK
        #: length of the state vector.
        self.n_states = n
        # powers[k] = A^k, k = 0..L.
        powers = np.empty((L + 1, n, n))
        powers[0] = np.eye(n)
        for k in range(L):
            powers[k + 1] = big_a @ powers[k]
        # Impulse response h[0..L-1]: D, then C A^(k-1) B.
        h = np.empty(L)
        h[0] = d
        h[1:] = powers[:L - 1] @ big_b @ big_c
        # Row convention (a block is a row of L samples): the
        # zero-state outputs of a block x are x @ T and its state
        # increment is x @ ctrl; a state s adds s @ obs to the block's
        # outputs and becomes s @ A^L.
        lags = np.subtract.outer(np.arange(L), np.arange(L))
        toeplitz = np.where(lags >= 0, h[np.clip(lags, 0, None)], 0.0)
        ctrl = powers[L - 1::-1] @ big_b                  # (L, n)
        self._gemm = _frozen(np.concatenate((toeplitz.T, ctrl), axis=1))
        self._obs = _frozen((big_c @ powers[:L]).T)       # (n, L)
        # Tails shorter than a block: s @ tail_step[r] after r samples.
        self._tail_step = _frozen(powers.transpose(0, 2, 1))
        # Scan levels: a step of level j spans SCAN_FANOUT**j blocks.
        # ``fan`` maps a group's start state to the states at its steps
        # (s @ step^i); ``fold`` maps a group's increments to its
        # zero-start states after each step (sum over l <= i of
        # u_l @ step^(i - l)).  Enough levels for one streamed pass.
        m = SCAN_FANOUT
        lags = np.subtract.outer(np.arange(m), np.arange(m)).T
        levels, step, spans = [], powers[L].T, 1
        while True:
            pows = np.empty((m, n, n))
            pows[0] = np.eye(n)
            for i in range(1, m):
                pows[i] = pows[i - 1] @ step
            fold = np.where((lags >= 0)[:, :, None, None],
                            pows[np.clip(lags, 0, None)], 0.0)
            levels.append((
                _frozen(step),
                _frozen(pows.transpose(1, 0, 2).reshape(n, m * n)),
                _frozen(fold.transpose(0, 2, 1, 3).reshape(m * n, m * n))))
            spans *= m
            if spans * BLOCK >= STREAM_BLOCK:
                break
            step = pows[-1] @ step
        self._levels = tuple(levels)

    def __call__(self, x: np.ndarray, zi: np.ndarray | None = None, *,
                 out: np.ndarray | None = None
                 ) -> tuple[np.ndarray, np.ndarray]:
        """*x* filtered along its last axis.

        Args:
            x: input, samples on the last axis.
            zi: initial state, shape ``x.shape[:-1] + (n_states,)``
                (zeros when ``None``).
            out: a C-contiguous float64 array of *x*'s shape for the
                output; may be *x* itself.

        Returns:
            ``(y, zf)``: the output (*out* when given) and the final
            state, shaped like *zi*.
        """
        x = np.ascontiguousarray(x, dtype=np.float64)
        if x.ndim == 0:
            raise ValueError("x must have at least one axis")
        if out is None:
            out = np.empty_like(x)
        elif (out.shape != x.shape or out.dtype != np.float64
              or not out.flags.c_contiguous):
            raise ValueError("out must be a C-contiguous float64 array "
                             "of x's shape")
        n = x.shape[-1]
        rows = x.reshape(-1, n)
        if zi is None:
            state = np.zeros((len(rows), self.n_states))
        else:
            state = np.array(zi, dtype=np.float64).reshape(
                len(rows), self.n_states)
        y = out.reshape(-1, n)
        for start in range(0, n, STREAM_BLOCK):
            stop = start + STREAM_BLOCK
            state = self._pass(rows[:, start:stop], y[:, start:stop],
                               state)
        return out, state.reshape(x.shape[:-1] + (self.n_states,))

    def _pass(self, x: np.ndarray, y: np.ndarray, state: np.ndarray
              ) -> np.ndarray:
        """Filter rows *x* into *y* (which may be *x*) from *state*;
        returns the final state."""
        L, n = BLOCK, self.n_states
        rows = len(x)
        nb, r = divmod(x.shape[-1], L)
        if nb:
            # Blocks as rows of one matrix: views unless several rows
            # end in a partial block.
            xb = np.ascontiguousarray(x[:, :nb * L]).reshape(-1, L)
            z = np.empty((len(xb), L + n))
            _product(xb, self._gemm, z)
            u = z[:, L:].reshape(rows, nb, n)
            starts = self._scan(u, state, 0)
            state = starts[:, -1] @ self._levels[0][0] + u[:, -1]
            yb = y[:, :nb * L]
            view = yb.flags.c_contiguous
            target = yb.reshape(-1, L) if view else np.empty((len(xb), L))
            _product(starts.reshape(-1, n), self._obs, target)
            target += z[:, :L]
            if not view:
                yb[...] = target.reshape(rows, nb * L)
        if r:
            tail = x[:, nb * L:]
            new_state = (state @ self._tail_step[r]
                         + tail @ self._gemm[L - r:, L:])
            y[:, nb * L:] = (state @ self._obs[:, :r]
                             + tail @ self._gemm[:r, :r])
            state = new_state
        return state

    def _scan(self, u: np.ndarray, state: np.ndarray, level: int
              ) -> np.ndarray:
        """States at the start of each step of ``s -> s @ step + u[j]``
        from *state*, where *u* is ``(rows, steps, n_states)`` and a
        step spans ``SCAN_FANOUT**level`` blocks."""
        _step, fan, fold = self._levels[level]
        m = SCAN_FANOUT
        rows, steps, n = u.shape
        groups = -(-steps // m)
        padded = np.zeros((rows * groups, m * n))
        padded.reshape(rows, groups * m, n)[:, :steps] = u
        # Each group's zero-start states after each of its steps; the
        # last is the group's whole increment.
        after = np.empty_like(padded)
        _product(padded, fold, after)
        after = after.reshape(rows, groups, m, n)
        if groups == 1:
            group_starts = state[:, None, :]
        else:
            group_starts = self._scan(after[:, :, -1], state, level + 1)
        states = np.empty((rows * groups, m * n))
        _product(np.ascontiguousarray(group_starts).reshape(-1, n), fan,
                 states)
        states = states.reshape(rows, groups, m, n)
        states[:, :, 1:] += after[:, :, :-1]
        return states.reshape(rows, groups * m, n)[:, :steps]
