"""Modified Nodal Analysis: compilation, stamping and Newton solution.

The compiler (:class:`MnaSystem`) turns a :class:`~repro.spice.netlist.Circuit`
into:

* a static linear matrix ``G0`` (resistors, controlled sources, source and
  inductor branch topology),
* packed linear-capacitor / inductor arrays for the dynamic part,
* vectorized nonlinear device groups (MOSFETs, diodes, switches).

Ground handling uses the sentinel trick: ground maps to an extra index
(``size``) of every node-index array, so stamping never needs branching
on grounded terminals.

Each Newton iteration is stamped as one flat *augmented* array ``[A | b]``
of :attr:`MnaSystem.aug_len` entries: the matrix ``A`` in column-major
order, then the right-hand side ``b``, then one discard slot that takes
every stamp on a ground row or column.  The flat positions of every
stamp are compiled once per system, so an iteration's stamps are one
``np.bincount`` and its solve is one LAPACK ``gesv`` on views of that
array (:meth:`MnaSystem.split` gives them).

The Newton loop (:meth:`MnaSystem.newton`) implements standard Spice
practice: companion linearization of each nonlinear device, per-entry
``reltol``/``vntol``/``abstol`` convergence checks, voltage-step damping,
and ``gmin``/source stepping as homotopy fallbacks (used by the operating
point analysis).
"""

from __future__ import annotations

from typing import Mapping, TypeVar

import numpy as np
# The LAPACK gesv gufunc that np.linalg.solve wraps.  Calling it directly
# skips solve's argument checks and errstate set-up, about a third of
# np.linalg.solve's time on the 26-unknown Table-1 matrix.
from numpy.linalg._umath_linalg import solve1 as _gesv

from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.spice.devices.controlled import Vccs, Vcvs
from repro.spice.devices.diode import Diode, DiodeGroup, DiodeModel
from repro.spice.devices.mosfet import MosEval, MosGroup, Mosfet, MosModel
from repro.spice.devices.passives import Capacitor, Inductor, Resistor
from repro.spice.devices.sources import CurrentSource, VoltageSource
from repro.spice.devices.switch import SwitchGroup, SwitchModel, VSwitch
from repro.spice.errors import (
    ConvergenceError,
    NetlistError,
    SingularMatrixError,
)
from repro.spice.lint.engine import preflight_check
from repro.spice.netlist import Circuit, normalize_node

T = TypeVar("T")

def node_entry(table: Mapping[str, T], node: str, ground: T) -> T:
    """The entry of *table* for *node*, and *ground* for any ground
    alias: the one node lookup behind every analysis result, so op, dc,
    ac and tran share one ground rule and raise one
    :class:`NetlistError` that names an unknown node."""
    key = normalize_node(node)
    if key == "0":
        return ground
    try:
        return table[key]
    except KeyError:
        raise NetlistError(f"unknown node {node!r}") from None


def branch_entry(table: Mapping[str, T], device: str) -> T:
    """The entry of *table* for *device*'s branch current: the one
    branch lookup behind every analysis result, raising a
    :class:`NetlistError` that names a device with no recorded
    current."""
    try:
        return table[device.lower()]
    except KeyError:
        raise NetlistError(
            f"{device!r} has no branch current (a V source, VCVS or "
            "inductor has one; a transient records its current_probes "
            "only)") from None


def zero_pivot(a: np.ndarray) -> int:
    """The 1-based column of the first exactly zero pivot of *a*'s LU
    factorization with partial pivoting (LAPACK ``getrf``'s ``info``),
    0 when there is none."""
    lu = np.array(a, dtype=float)
    for k in range(len(lu)):
        p = k + int(np.argmax(np.abs(lu[k:, k])))
        if lu[p, k] == 0.0:
            return k + 1
        lu[[k, p]] = lu[[p, k]]
        lu[k + 1:, k] /= lu[k, k]
        lu[k + 1:, k + 1:] -= np.outer(lu[k + 1:, k], lu[k, k + 1:])
    return 0


#: Newton iterations per converged :meth:`MnaSystem.newton` call.
_ITERATIONS = _metrics.REGISTRY.histogram(
    "spice.newton.iterations",
    bounds=(1, 2, 3, 4, 5, 6, 8, 10, 15, 20, 30, 50, 100))


class MnaSystem:
    """Compiled MNA representation of a circuit.

    Args:
        circuit: the circuit to compile.
    """

    def __init__(self, circuit: Circuit):
        # The historic shallow gate: a ground reference must exist.
        # Full structural verification (floating nodes, DC cuts, source
        # loops...) is the lint engine's job and runs in the cosim
        # pre-flight / CLI, not on every MNA compile - tests and
        # analyses legitimately build degenerate circuits on purpose.
        preflight_check(circuit, rules=("SP-GND-001",))
        self.circuit = circuit
        #: conductance added from every node to ground (leakage /
        #: convergence aid).
        self.gmin = 1e-12
        #: Newton convergence tolerances (relative, node-voltage
        #: absolute, branch-current absolute).
        self.reltol, self.vntol, self.abstol = 1e-3, 1e-6, 1e-9

        self.nodes = circuit.node_names()
        self.n_nodes = len(self.nodes)

        self.vsources: list[VoltageSource] = circuit.devices_of(VoltageSource)
        self.isources: list[CurrentSource] = circuit.devices_of(CurrentSource)
        self.vcvs: list[Vcvs] = circuit.devices_of(Vcvs)
        self.inductors: list[Inductor] = circuit.devices_of(Inductor)
        self.n_branch = (len(self.vsources) + len(self.vcvs)
                         + len(self.inductors))
        self.size = self.n_nodes + self.n_branch
        self.ground = self.size  # sentinel row/column

        self.node_index: dict[str, int] = {
            name: i for i, name in enumerate(self.nodes)}
        self.node_index["0"] = self.ground

        self.branch_index: dict[str, int] = {}
        row = self.n_nodes
        for dev in (*self.vsources, *self.vcvs, *self.inductors):
            self.branch_index[dev.name] = row
            row += 1

        self._compile_groups()
        self._compile_static()
        self._compile_dynamic()
        self._compile_stamps()

        # Newton loop constants.
        self._is_linear = (self.mos_group is None
                           and self.diode_group is None
                           and self.switch_group is None)
        self._tol_floor = np.concatenate([
            np.full(self.n_nodes, self.vntol),
            np.full(self.n_branch, self.abstol)])
        #: Newton iterations of the last converged :meth:`newton` call.
        self.last_iterations = 0
        #: The MOSFET evaluation the last converged :meth:`newton` call
        #: stamped its final iteration with (``None`` without MOSFETs).
        self.last_mos_eval: MosEval | None = None
        # The MOSFET evaluation of the latest :meth:`stamp_nonlinear`.
        self._stamped_eval: MosEval | None = None

    # ------------------------------------------------------------------
    # compilation
    # ------------------------------------------------------------------
    def _node(self, name: str) -> int:
        return self.node_index[name]

    def _compile_groups(self) -> None:
        models = self.circuit.models
        mos_models = {k: m for k, m in models.items()
                      if isinstance(m, MosModel)}
        dio_models = {k: m for k, m in models.items()
                      if isinstance(m, DiodeModel)}
        sw_models = {k: m for k, m in models.items()
                     if isinstance(m, SwitchModel)}
        mosfets = self.circuit.devices_of(Mosfet)
        diodes = self.circuit.devices_of(Diode)
        switches = self.circuit.devices_of(VSwitch)
        self.mos_group = (MosGroup(mosfets, mos_models, self.node_index)
                          if mosfets else None)
        self.diode_group = (DiodeGroup(diodes, dio_models, self.node_index)
                            if diodes else None)
        self.switch_group = (SwitchGroup(switches, sw_models, self.node_index)
                             if switches else None)

    def _compile_static(self) -> None:
        """Static linear stamps: R, VCCS, and V-source/VCVS/L topology."""
        n = self.size + 1
        g0 = np.zeros((n, n))
        for res in self.circuit.devices_of(Resistor):
            a, b = self._node(res.n1), self._node(res.n2)
            g = res.conductance
            g0[a, a] += g
            g0[b, b] += g
            g0[a, b] -= g
            g0[b, a] -= g
        for src in self.circuit.devices_of(Vccs):
            a, b = self._node(src.n1), self._node(src.n2)
            c, d = self._node(src.cn1), self._node(src.cn2)
            g = src.gain
            g0[a, c] += g
            g0[a, d] -= g
            g0[b, c] -= g
            g0[b, d] += g
        for src in self.vsources:
            a, b = self._node(src.n1), self._node(src.n2)
            k = self.branch_index[src.name]
            g0[a, k] += 1.0
            g0[b, k] -= 1.0
            g0[k, a] += 1.0
            g0[k, b] -= 1.0
        for src in self.vcvs:
            a, b = self._node(src.n1), self._node(src.n2)
            c, d = self._node(src.cn1), self._node(src.cn2)
            k = self.branch_index[src.name]
            g0[a, k] += 1.0
            g0[b, k] -= 1.0
            g0[k, a] += 1.0
            g0[k, b] -= 1.0
            g0[k, c] -= src.gain
            g0[k, d] += src.gain
        for ind in self.inductors:
            a, b = self._node(ind.n1), self._node(ind.n2)
            k = self.branch_index[ind.name]
            g0[a, k] += 1.0
            g0[b, k] -= 1.0
            g0[k, a] += 1.0
            g0[k, b] -= 1.0
            # The L*di/dt term is added as a transient companion; in DC the
            # branch equation v1 - v2 = 0 correctly shorts the inductor.
        self.g_static = g0

    def _compile_dynamic(self) -> None:
        caps = self.circuit.devices_of(Capacitor)
        self.cap_n1 = np.array([self._node(c.n1) for c in caps], dtype=np.intp)
        self.cap_n2 = np.array([self._node(c.n2) for c in caps], dtype=np.intp)
        self.cap_val = np.array([c.value for c in caps])
        self.cap_ic = np.array(
            [c.ic if c.ic is not None else np.nan for c in caps])
        self.ind_val = np.array([i.value for i in self.inductors])
        self.ind_rows = np.array(
            [self.branch_index[i.name] for i in self.inductors], dtype=np.intp)
        # Terminals of every capacitance the transient companions see:
        # the linear capacitors, then cgs, cgd, cgb, cbd, cbs of each
        # MOSFET (the value order of :meth:`dynamic_caps`).
        n1 = [self.cap_n1]
        n2 = [self.cap_n2]
        grp = self.mos_group
        if grp is not None:
            n1 += [grp.ng, grp.ng, grp.ng, grp.nb, grp.nb]
            n2 += [grp.ns, grp.nd, grp.nb, grp.nd, grp.ns]
        self.dyn_n1 = np.concatenate(n1)
        self.dyn_n2 = np.concatenate(n2)

    def _compile_stamps(self) -> None:
        """Flat ``[A | b]`` positions of every stamp (see :meth:`split`)."""
        n = self.size
        self.aug_len = n * n + n + 1
        discard = self.aug_len - 1
        idx = np.arange(n + 1)
        # _mat[r, c] is entry (r, c) of the column-major matrix and
        # _rhs[r] entry r of the right-hand side; ground goes to discard.
        self._mat = idx[None, :] * n + idx[:, None]
        self._mat[n, :] = discard
        self._mat[:, n] = discard
        self._rhs = np.append(n * n + idx[:n], discard)
        self._aug_static = np.zeros(self.aug_len)
        self._aug_static[:n * n] = self.g_static[:n, :n].ravel(order="F")
        node = np.arange(self.n_nodes)
        self._gmin_pos = self._mat[node, node]

        grp = self.mos_group
        if grp is not None:
            # Both drain/source orientations: rows of the effective drain,
            # columns in the order d, g, b, s of the values in
            # :meth:`stamp_nonlinear`.
            self._mos_fwd = self._mirror(grp.nd, grp.ns,
                                         (grp.nd, grp.ng, grp.nb, grp.ns))
            self._mos_rev = self._mirror(grp.ns, grp.nd,
                                         (grp.ns, grp.ng, grp.nb, grp.nd))
        grp = self.diode_group
        if grp is not None:
            self._diode_pos = self._mirror(grp.na, grp.nc, (grp.na, grp.nc))
        grp = self.switch_group
        if grp is not None:
            self._switch_pos = self._mirror(grp.n1, grp.n2,
                                            (grp.n1, grp.n2, grp.c1, grp.c2))
        ind = self.ind_rows
        self._companion_pos = np.concatenate([
            self._mirror(self.dyn_n1, self.dyn_n2, (self.dyn_n1, self.dyn_n2)),
            self._mat[ind, ind], self._rhs[ind]], axis=None)

    def _mirror(self, p: np.ndarray, m: np.ndarray,
                cols: tuple[np.ndarray, ...]) -> np.ndarray:
        """Flat positions of a stamp that adds one value per column of
        *cols*, then one on the RHS, to row *p*, and their negatives to
        row *m*.  The result has shape ``(2 * (len(cols) + 1), count)``:
        raveled, it lines up with ``np.concatenate([pos, -pos])`` where
        ``pos`` concatenates the ``len(cols) + 1`` value arrays."""
        mat, rhs = self._mat, self._rhs
        return np.stack([*(mat[p, c] for c in cols), rhs[p],
                         *(mat[m, c] for c in cols), rhs[m]])

    # ------------------------------------------------------------------
    # assembly helpers
    # ------------------------------------------------------------------
    def full_vector(self, x: np.ndarray) -> np.ndarray:
        """Append the sentinel ground entry (0 V) to a solution vector."""
        return np.concatenate([x, [0.0]])

    def source_vector(self, t: float | None = None,
                      overrides: Mapping[str, float] | None = None,
                      scale: float = 1.0) -> np.ndarray:
        """RHS vector from independent sources.

        Args:
            t: evaluate transient waveforms at this time; ``None`` selects
                the DC value.
            overrides: per-source value overrides (used by co-simulation
                and source stepping), keyed by device name.
            scale: multiplies every independent source (source stepping).
        """
        b = np.zeros(self.size + 1)
        overrides = overrides or {}
        for src in self.vsources:
            k = self.branch_index[src.name]
            if src.name in overrides:
                value = overrides[src.name]
            elif t is None:
                value = src.dc
            else:
                value = src.value_at(t)
            b[k] += value * scale
        for src in self.isources:
            a, c = self._node(src.n1), self._node(src.n2)
            if src.name in overrides:
                value = overrides[src.name]
            elif t is None:
                value = src.dc
            else:
                value = src.value_at(t)
            b[a] -= value * scale
            b[c] += value * scale
        return b

    def split(self, aug: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Views of the matrix (``size x size``, column-major) and the
        right-hand side (``size``) of a flat ``[A | b]`` array."""
        n = self.size
        return aug[:n * n].reshape((n, n), order="F"), aug[n * n:n * n + n]

    def linear_stamps(self, t: float | None = None,
                      overrides: Mapping[str, float] | None = None,
                      source_scale: float = 1.0,
                      gmin: float | None = None,
                      companions: np.ndarray | None = None) -> np.ndarray:
        """The flat ``[A | b]`` part that is the same in every Newton
        iteration: static stamps, ``gmin`` on every node, the sources
        (see :meth:`source_vector`) and *companions*."""
        aug = (self._aug_static.copy() if companions is None
               else self._aug_static + companions)
        aug[self._gmin_pos] += self.gmin if gmin is None else gmin
        n = self.size
        aug[n * n:n * n + n] += self.source_vector(
            t=t, overrides=overrides, scale=source_scale)[:n]
        return aug

    def companion_stamps(self, geq: np.ndarray, ieq: np.ndarray,
                         leq: np.ndarray, i_old: np.ndarray) -> np.ndarray:
        """Transient companions as a flat ``[A | b]`` array: conductance
        *geq* in parallel with current source *ieq* across every
        capacitance of :meth:`dynamic_caps`, and ``-leq`` (with
        ``-leq * i_old`` on the RHS) on every inductor branch."""
        vals = np.concatenate([geq, -geq, -ieq, -geq, geq, ieq,
                               -leq, -leq * i_old])
        return np.bincount(self._companion_pos, vals,
                           minlength=self.aug_len)

    @_trace.timed("spice.stamp")
    def stamp_nonlinear(self, x_full: np.ndarray,
                        mos_eval: MosEval | None = None) -> np.ndarray:
        """Companion-linearize all nonlinear groups at *x_full* (which
        includes the 0 V ground entry) and return their stamps as a flat
        ``[A | b]`` array.  The MOSFETs are linearized at *mos_eval* when
        given, else at an evaluation of *x_full*; the evaluation used is
        kept for :meth:`newton` to hand on."""
        # Each group stamps pos at rows of one terminal and -pos at rows
        # of the other (see _mirror).
        positions, values = [], []
        if self.mos_group is not None:
            ev = (self.mos_group.evaluate(x_full) if mos_eval is None
                  else mos_eval)
            self._stamped_eval = ev
            gm, gds, gmb = ev.gm, ev.gds, ev.gmb
            # ids minus its linearization, in the physical frame.
            i_lin = self.mos_group.sign * (gm * ev.vgs + gds * ev.vds
                                           - gmb * ev.vsb)
            pos = np.concatenate([gds, gm, gmb, -(gm + gds + gmb),
                                  i_lin - ev.ids])
            positions.append(np.where(ev.reversed, self._mos_rev,
                                      self._mos_fwd))
            values += [pos, -pos]
        if self.diode_group is not None:
            grp = self.diode_group
            current, cond = grp.evaluate(x_full)
            i_lin = cond * (x_full[grp.na] - x_full[grp.nc])
            pos = np.concatenate([cond, -cond, i_lin - current])
            positions.append(self._diode_pos)
            values += [pos, -pos]
        if self.switch_group is not None:
            grp = self.switch_group
            g, dg_dvc, v12 = grp.evaluate(x_full)
            gc = dg_dvc * v12
            vc = x_full[grp.c1] - x_full[grp.c2]
            pos = np.concatenate([g, -g, gc, -gc, gc * vc])
            positions.append(self._switch_pos)
            values += [pos, -pos]
        if not positions:
            return np.zeros(self.aug_len)
        return np.bincount(np.concatenate(positions, axis=None),
                           np.concatenate(values), minlength=self.aug_len)

    # ------------------------------------------------------------------
    # Newton solution
    # ------------------------------------------------------------------
    def _converged(self, dx: np.ndarray, x_new: np.ndarray,
                   x_old: np.ndarray) -> bool:
        xmag = np.maximum(np.abs(x_new), np.abs(x_old))
        return bool((np.abs(dx) <= self._tol_floor
                     + self.reltol * xmag).all())

    @_trace.timed("spice.newton")
    def newton(self, x0: np.ndarray | None = None,
               t: float | None = None,
               overrides: Mapping[str, float] | None = None,
               companions: np.ndarray | None = None,
               gmin: float | None = None,
               source_scale: float = 1.0,
               max_iter: int = 100,
               damping: float = 2.0,
               mos_eval: MosEval | None = None) -> np.ndarray:
        """Solve the (possibly nonlinear) MNA system by damped Newton.

        Args:
            x0: initial guess (size ``self.size``); zeros if omitted.
            t: waveform evaluation time (``None`` = DC values).
            overrides: independent-source value overrides.
            companions: additional flat ``[A | b]`` stamps, the same in
                every iteration (transient companions, see
                :meth:`companion_stamps`).
            gmin: overrides the instance ``gmin`` (gmin stepping).
            source_scale: multiplies independent sources (source stepping).
            max_iter: Newton iteration limit.
            damping: maximum per-iteration node-voltage change (V).
            mos_eval: a MOSFET evaluation the first iteration linearizes
                at instead of evaluating *x0* (the transient stepper
                passes the previous call's :attr:`last_mos_eval`).

        Returns:
            The solution vector (node voltages then branch currents).
            :attr:`last_iterations` holds the iterations it took, and
            :attr:`last_mos_eval` the MOSFET evaluation its final
            iteration was linearized at (the iterate before the returned
            solution).  Like Spice3's retained device state, it stands
            in for an evaluation at the solution: the transient stepper
            derives the device capacitances from it and passes it on as
            the next call's *mos_eval*.  A failed call changes neither.

        Raises:
            ConvergenceError: Newton failed to converge.
            SingularMatrixError: structurally singular system.
        """
        n, n_nodes = self.size, self.n_nodes
        x = np.zeros(n) if x0 is None else np.asarray(x0, float)
        # Everything but the nonlinear stamps is the same in every
        # iteration: stamp it once.
        base = self.linear_stamps(t=t, overrides=overrides,
                                  source_scale=source_scale, gmin=gmin,
                                  companions=companions)
        x_full = np.zeros(n + 1)  # the last entry is the 0 V ground
        max_dv, dx = 0.0, None

        # gesv flags a singular matrix as an invalid value and returns
        # NaNs: silence that warning once per call, not per iteration.
        # The non-finite check raises for it (and for any NaN a device
        # stamps, which reaches the solution as well).
        with np.errstate(invalid="ignore"):
            for iteration in range(max_iter):
                x_full[:n] = x
                aug = self.stamp_nonlinear(x_full, mos_eval)
                aug += base
                mos_eval = None
                with _trace.span("spice.solve"):
                    x_new = _gesv(*self.split(aug))
                if not np.isfinite(x_new).all():
                    raise self._singular(self.split(aug)[0])
                if self._is_linear:
                    return self._accept(iteration, x_new)
                dx = x_new - x
                max_dv = np.abs(dx[:n_nodes]).max() if n_nodes else 0.0
                if max_dv > damping:
                    dx = dx * (damping / max_dv)
                    x_new = x + dx
                elif self._converged(dx, x_new, x):
                    return self._accept(iteration, x_new)
                x = x_new
        when = "at DC" if t is None else f"at t={t:.6g} s"
        node = (self.nodes[int(np.argmax(np.abs(dx[:n_nodes])))]
                if dx is not None and n_nodes else None)
        raise ConvergenceError(
            f"Newton did not converge in {max_iter} iterations {when} "
            f"for {self.circuit!r}: last update {float(max_dv):.3g} V, "
            f"largest at node {node!r}",
            iterations=max_iter, residual=float(max_dv), t=t, node=node)

    def _singular(self, a: np.ndarray) -> SingularMatrixError:
        """The error of a solve of matrix *a* that gave a non-finite
        solution: LAPACK's zero pivot when *a* has one."""
        column = zero_pivot(a) if np.isfinite(a).all() else 0
        if column:
            return SingularMatrixError(
                f"singular MNA matrix for {self.circuit!r}: "
                f"zero pivot in column {column}")
        return SingularMatrixError(
            f"non-finite solution for {self.circuit!r} "
            "(check for floating nodes)")

    def _accept(self, iteration: int, x: np.ndarray) -> np.ndarray:
        """Record a call that converged at 0-based *iteration*."""
        self.last_iterations = iteration + 1
        self.last_mos_eval = self._stamped_eval
        _ITERATIONS.observe(iteration + 1)
        return x

    def solve_robust(self, x0: np.ndarray | None = None,
                     overrides: Mapping[str, float] | None = None,
                     t: float | None = None) -> np.ndarray:
        """Newton with gmin-stepping and source-stepping homotopy fallbacks
        (the standard Spice OP strategy)."""
        try:
            return self.newton(x0, t=t, overrides=overrides)
        except ConvergenceError:
            pass
        # gmin stepping: solve with a large gmin, then reduce it gradually.
        x = x0
        try:
            for gmin in np.logspace(-3, np.log10(self.gmin), 12):
                x = self.newton(x, t=t, overrides=overrides, gmin=gmin)
            return self.newton(x, t=t, overrides=overrides)
        except ConvergenceError:
            pass
        # source stepping: ramp all independent sources from 0 to 100 %.
        x = None
        try:
            for scale in np.linspace(0.05, 1.0, 20):
                x = self.newton(x, t=t, overrides=overrides,
                                source_scale=scale)
            return x
        except ConvergenceError as exc:
            raise ConvergenceError(
                f"operating point failed for {self.circuit!r} even with "
                "gmin and source stepping") from exc

    # ------------------------------------------------------------------
    # small-signal matrices (for AC analysis)
    # ------------------------------------------------------------------
    def small_signal_matrices(self, x_op: np.ndarray
                              ) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(G, C)`` linearized at the operating point *x_op*,
        both reduced to ``size x size`` (ground dropped)."""
        x_full = self.full_vector(x_op)
        g_aug = self.linear_stamps() + self.stamp_nonlinear(x_full)
        # The C matrix is the companion matrix of unit conductance per
        # farad, with -L on every inductor branch (v1 - v2 - jwL i = 0).
        c_aug = self.companion_stamps(
            self.dynamic_caps(x_full), np.zeros(len(self.dyn_n1)),
            self.ind_val, np.zeros(len(self.ind_val)))
        return self.split(g_aug)[0], self.split(c_aug)[0]

    @_trace.timed("spice.caps")
    def dynamic_caps(self, x_full: np.ndarray,
                     mos_eval: MosEval | None = None) -> np.ndarray:
        """Values of all capacitances (linear + device) at *x_full*,
        between the terminals :attr:`dyn_n1` / :attr:`dyn_n2`.  Used by
        the transient companion models.  The MOSFET capacitances come
        from *mos_eval* when given, else from an evaluation of
        *x_full*."""
        grp = self.mos_group
        if grp is None:
            return self.cap_val.copy()
        ev = grp.evaluate(x_full) if mos_eval is None else mos_eval
        return np.concatenate([self.cap_val, grp.cap_values(ev)],
                              axis=None)

    # ------------------------------------------------------------------
    # result helpers
    # ------------------------------------------------------------------
    def voltage(self, x: np.ndarray, node: str) -> np.ndarray:
        """Voltage of *node* in the solution vector(s) *x*, unknowns on
        the last axis (ground gives zeros)."""
        row = node_entry(self.node_index, node, None)
        if row is None:
            return np.zeros(x.shape[:-1], dtype=x.dtype)
        return x[..., row]

    def branch_current(self, x: np.ndarray, device: str) -> np.ndarray:
        """Branch current of a voltage source / VCVS / inductor in the
        solution vector(s) *x*, unknowns on the last axis."""
        return x[..., branch_entry(self.branch_index, device)]
