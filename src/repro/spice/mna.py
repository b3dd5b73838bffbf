"""Modified Nodal Analysis: compilation, stamping and Newton solution.

The compiler (:class:`MnaSystem`) turns a :class:`~repro.spice.netlist.Circuit`
into:

* a static linear matrix ``G0`` (resistors, controlled sources, source and
  inductor branch topology),
* packed linear-capacitor / inductor arrays for the dynamic part,
* vectorized nonlinear device groups (MOSFETs, diodes, switches).

Ground handling uses the sentinel trick: ground maps to an extra row and
column (index ``size``) of an oversized matrix, so stamping never needs
branching on grounded terminals; the solver simply drops the last
row/column.

The Newton loop (:meth:`MnaSystem.newton`) implements standard Spice
practice: companion linearization of each nonlinear device, per-entry
``reltol``/``vntol``/``abstol`` convergence checks, voltage-step damping,
and ``gmin``/source stepping as homotopy fallbacks (used by the operating
point analysis).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

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
from repro.spice.netlist import Circuit, normalize_node

#: Newton iterations per converged :meth:`MnaSystem.newton` call.
_ITERATIONS = _metrics.REGISTRY.histogram(
    "spice.newton.iterations",
    bounds=(1, 2, 3, 4, 5, 6, 8, 10, 15, 20, 30, 50, 100))


@dataclass
class StampTriples:
    """Sparse additions (rows, cols, vals) applied on top of ``G0``."""

    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray


@dataclass
class RhsAdditions:
    """Sparse additions (rows, vals) applied on top of the source vector."""

    rows: np.ndarray
    vals: np.ndarray


class MnaSystem:
    """Compiled MNA representation of a circuit.

    Args:
        circuit: the circuit to compile.
        gmin: conductance added from every node to ground (leakage /
            convergence aid).
        reltol, vntol, abstol: Newton convergence tolerances (relative,
            node-voltage absolute, branch-current absolute).
    """

    def __init__(self, circuit: Circuit, gmin: float = 1e-12,
                 reltol: float = 1e-3, vntol: float = 1e-6,
                 abstol: float = 1e-9):
        # The historic shallow gate: a ground reference must exist.
        # Full structural verification (floating nodes, DC cuts, source
        # loops...) is the lint engine's job and runs in the cosim
        # pre-flight / CLI, not on every MNA compile - tests and
        # analyses legitimately build degenerate circuits on purpose.
        from repro.spice.lint import preflight_check

        preflight_check(circuit, rules=("SP-GND-001",))
        self.circuit = circuit
        self.gmin = float(gmin)
        self.reltol = float(reltol)
        self.vntol = float(vntol)
        self.abstol = float(abstol)

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

        # Newton loop constants.
        self._is_linear = (self.mos_group is None
                           and self.diode_group is None
                           and self.switch_group is None)
        self._diag = np.arange(self.n_nodes)
        self._tol_floor = np.concatenate([
            np.full(self.n_nodes, self.vntol),
            np.full(self.n_branch, self.abstol)])
        #: Newton iterations of the last converged :meth:`newton` call.
        self.last_iterations = 0

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
        if self.mos_group is not None:
            # Flat matrix positions of the 8 MOSFET conductance stamps,
            # for the forward and the drain/source-swapped orientation.
            grp = self.mos_group
            width = self.size + 1

            def pattern(d: np.ndarray, s: np.ndarray) -> np.ndarray:
                rows = np.stack([d, d, d, d, s, s, s, s])
                cols = np.stack([d, grp.ng, grp.nb, s] * 2)
                return rows * width + cols

            self._mos_stamp = pattern(grp.nd, grp.ns)
            self._mos_stamp_rev = pattern(grp.ns, grp.nd)

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

    @_trace.timed("spice.stamp")
    def stamp_nonlinear(self, a_mat: np.ndarray, b: np.ndarray,
                        x_full: np.ndarray,
                        mos_eval: MosEval | None = None) -> None:
        """Companion-linearize all nonlinear groups at *x_full* and stamp
        them into matrix *a_mat* and RHS *b* (both oversized, *a_mat*
        C-contiguous).  *mos_eval* is the MOSFET evaluation at *x_full*
        when the caller already has it."""
        if self.mos_group is not None:
            ev = (self.mos_group.evaluate(x_full) if mos_eval is None
                  else mos_eval)
            gm, gds, gmb = ev.gm, ev.gds, ev.gmb
            gss = gm + gds + gmb
            flat = np.where(ev.reversed, self._mos_stamp_rev,
                            self._mos_stamp)
            vals = np.concatenate(
                [gds, gm, gmb, -gss, -gds, -gm, -gmb, gss])
            np.add.at(a_mat.reshape(-1), flat.reshape(-1), vals)
            vd, vg, vs, vb = ev.v_eff
            i_lin = gds * vd + gm * vg + gmb * vb - gss * vs
            i_eq = ev.ids - i_lin
            # Effective drains, then effective sources.
            np.add.at(b, ev.terminals[::2].reshape(-1),
                      np.concatenate([-i_eq, i_eq]))
        if self.diode_group is not None:
            grp = self.diode_group
            current, cond = grp.evaluate(x_full)
            na, nc = grp.na, grp.nc
            rows = np.concatenate([na, na, nc, nc])
            cols = np.concatenate([na, nc, na, nc])
            vals = np.concatenate([cond, -cond, -cond, cond])
            np.add.at(a_mat, (rows, cols), vals)
            i_eq = current - cond * (x_full[na] - x_full[nc])
            np.add.at(b, na, -i_eq)
            np.add.at(b, nc, i_eq)
        if self.switch_group is not None:
            grp = self.switch_group
            g, dg_dvc, v12 = grp.evaluate(x_full)
            n1, n2, c1, c2 = grp.n1, grp.n2, grp.c1, grp.c2
            rows = np.concatenate([n1, n1, n1, n1, n2, n2, n2, n2])
            cols = np.concatenate([n1, n2, c1, c2] * 2)
            gc = dg_dvc * v12
            vals = np.concatenate([g, -g, gc, -gc, -g, g, -gc, gc])
            np.add.at(a_mat, (rows, cols), vals)
            vc = x_full[c1] - x_full[c2]
            i0 = g * v12
            i_lin = g * v12 + gc * vc
            i_eq = i0 - i_lin
            np.add.at(b, n1, -i_eq)
            np.add.at(b, n2, i_eq)

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
               extra_g: StampTriples | None = None,
               extra_b: RhsAdditions | None = None,
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
            extra_g / extra_b: additional stamps (transient companions).
            gmin: overrides the instance ``gmin`` (gmin stepping).
            source_scale: multiplies independent sources (source stepping).
            max_iter: Newton iteration limit.
            damping: maximum per-iteration node-voltage change (V).
            mos_eval: the MOSFET evaluation at *x0*, used by the first
                iteration instead of evaluating *x0* again.

        Returns:
            The solution vector (node voltages then branch currents).
            :attr:`last_iterations` holds the iterations it took.

        Raises:
            ConvergenceError: Newton failed to converge.
            SingularMatrixError: structurally singular system.
        """
        n, n_nodes = self.size, self.n_nodes
        x = np.zeros(n) if x0 is None else np.asarray(x0, float)
        gmin_val = self.gmin if gmin is None else gmin
        diag = self._diag
        # Everything but the nonlinear stamps is the same in every
        # iteration: stamp it once.
        a_base = self.g_static.copy()
        b_base = self.source_vector(t=t, overrides=overrides,
                                    scale=source_scale)
        if extra_g is not None:
            np.add.at(a_base, (extra_g.rows, extra_g.cols), extra_g.vals)
        if extra_b is not None:
            np.add.at(b_base, extra_b.rows, extra_b.vals)
        x_full = np.zeros(n + 1)  # the last entry is the 0 V ground
        max_dv, dx = 0.0, None

        for iteration in range(max_iter):
            a_mat = a_base.copy()
            b = b_base.copy()
            x_full[:n] = x
            self.stamp_nonlinear(a_mat, b, x_full, mos_eval)
            mos_eval = None
            a_red = a_mat[:n, :n]
            a_red[diag, diag] += gmin_val
            with _trace.span("spice.solve"):
                try:
                    x_new = np.linalg.solve(a_red, b[:n])
                except np.linalg.LinAlgError as exc:
                    raise SingularMatrixError(
                        f"singular MNA matrix for {self.circuit!r}: {exc}"
                    ) from exc
            if not np.isfinite(x_new).all():
                raise SingularMatrixError(
                    f"non-finite solution for {self.circuit!r} "
                    "(check for floating nodes)")
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

    def _accept(self, iteration: int, x: np.ndarray) -> np.ndarray:
        """Record a call that converged at 0-based *iteration*."""
        self.last_iterations = iteration + 1
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
            for gmin in np.logspace(-3, np.log10(max(self.gmin, 1e-13)), 12):
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
        n = self.size
        a_mat = self.g_static.copy()
        b = np.zeros(self.size + 1)
        x_full = self.full_vector(x_op)
        self.stamp_nonlinear(a_mat, b, x_full)
        g_red = a_mat[:n, :n].copy()
        diag = np.arange(self.n_nodes)
        g_red[diag, diag] += self.gmin

        c_mat = np.zeros((n + 1, n + 1))
        self._stamp_caps(c_mat, self.cap_n1, self.cap_n2, self.cap_val)
        for pair_n1, pair_n2, vals in self._mos_cap_pairs(x_full):
            self._stamp_caps(c_mat, pair_n1, pair_n2, vals)
        # Inductor branches: v1 - v2 - jwL i = 0 -> C[k, k] = -L.
        if len(self.ind_rows):
            c_mat[self.ind_rows, self.ind_rows] -= self.ind_val
        return g_red, c_mat[:n, :n]

    @staticmethod
    def _stamp_caps(c_mat: np.ndarray, n1: np.ndarray, n2: np.ndarray,
                    vals: np.ndarray) -> None:
        if len(vals) == 0:
            return
        np.add.at(c_mat, (n1, n1), vals)
        np.add.at(c_mat, (n2, n2), vals)
        np.add.at(c_mat, (n1, n2), -vals)
        np.add.at(c_mat, (n2, n1), -vals)

    def _mos_cap_pairs(self, x_full: np.ndarray):
        """Yield ``(n1, n2, value)`` arrays for every MOSFET capacitance."""
        if self.mos_group is None:
            return
        grp = self.mos_group
        caps = grp.capacitances(x_full)
        yield grp.ng, grp.ns, caps["cgs"]
        yield grp.ng, grp.nd, caps["cgd"]
        yield grp.ng, grp.nb, caps["cgb"]
        yield grp.nb, grp.nd, caps["cbd"]
        yield grp.nb, grp.ns, caps["cbs"]

    @_trace.timed("spice.caps")
    def dynamic_caps(self, x_full: np.ndarray,
                     mos_eval: MosEval | None = None) -> np.ndarray:
        """Values of all capacitances (linear + device) at *x_full*,
        between the terminals :attr:`dyn_n1` / :attr:`dyn_n2`.  Used by
        the transient companion models.  *mos_eval* is the MOSFET
        evaluation at *x_full* when the caller already has it."""
        if self.mos_group is None:
            return self.cap_val.copy()
        caps = self.mos_group.capacitances(x_full, mos_eval)
        return np.concatenate([self.cap_val, caps["cgs"], caps["cgd"],
                               caps["cgb"], caps["cbd"], caps["cbs"]])

    # ------------------------------------------------------------------
    # result helpers
    # ------------------------------------------------------------------
    def voltage(self, x: np.ndarray, node: str) -> float:
        """Node voltage from a solution vector (ground returns 0)."""
        node = normalize_node(node)
        if node == "0":
            return 0.0
        try:
            return float(x[self.node_index[node]])
        except KeyError:
            raise NetlistError(f"unknown node {node!r}") from None

    def branch_current(self, x: np.ndarray, device: str) -> float:
        """Branch current of a voltage source / VCVS / inductor."""
        try:
            return float(x[self.branch_index[device.lower()]])
        except KeyError:
            raise NetlistError(
                f"{device!r} has no branch current (not a V source, "
                "VCVS or inductor)") from None
