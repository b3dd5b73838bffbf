"""Level-1 (Shichman-Hodges) MOSFET model with vectorized evaluation.

The device description is :class:`Mosfet` + :class:`MosModel`.  The MNA
compiler packs all MOSFETs of a circuit into a :class:`MosGroup`, whose
arrays allow every transistor to be evaluated in a handful of numpy
operations per Newton iteration — this is what makes transistor-in-the-loop
co-simulation tractable in pure Python.

Model features:

* square-law triode/saturation with channel-length modulation applied in
  both regions (continuous at the triode/saturation boundary, as in
  Berkeley Spice level 1),
* body effect ``VT = VTO + GAMMA*(sqrt(PHI+VSB) - sqrt(PHI))`` with a
  floor on the square-root argument for robustness under forward body
  bias,
* automatic drain/source swap when ``VDS < 0`` (the device is symmetric),
* Meyer-style piecewise gate-capacitance model plus constant overlap and
  junction capacitances, used by AC analysis and by the transient
  companion models.

Known simplifications versus a production BSIM model: no subthreshold
conduction (cutoff is abrupt, with the global ``gmin`` providing
leakage), junction capacitances evaluated at zero bias, Meyer
capacitances are not charge-conserving.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.obs import trace as _trace
from repro.spice.devices.base import Device
from repro.spice.errors import NetlistError
from repro.spice.units import parse_value

EPS_OX = 3.9 * 8.854187817e-12  # F/m, SiO2 permittivity


@dataclass(frozen=True)
class MosModel:
    """Level-1 MOSFET model card.

    Args:
        name: model name referenced by :class:`Mosfet` instances.
        mtype: ``"n"`` or ``"p"``.
        vto: zero-bias threshold voltage (positive for NMOS, negative
            for PMOS, as in Spice).
        kp: transconductance parameter ``u0*Cox`` in A/V^2.
        gamma: body-effect coefficient in V^0.5.
        phi: surface potential in V.
        lambd: channel-length modulation in 1/V.
        tox: gate-oxide thickness in m (sets the charge model's Cox).
        cgso/cgdo: gate-source/drain overlap capacitance per meter of
            width (F/m).
        cgbo: gate-bulk overlap capacitance per meter of length (F/m).
        cj: zero-bias junction capacitance per area (F/m^2).
        cjsw: zero-bias sidewall junction capacitance (F/m).
        ldiff: drawn source/drain diffusion length used to derive the
            default junction areas (m).
        ld: lateral diffusion; the effective length is ``L - 2*ld``.
    """

    name: str
    mtype: str = "n"
    vto: float = 0.5
    kp: float = 200e-6
    gamma: float = 0.45
    phi: float = 0.8
    lambd: float = 0.06
    tox: float = 4.1e-9
    cgso: float = 3.0e-10
    cgdo: float = 3.0e-10
    cgbo: float = 1.0e-10
    cj: float = 1.0e-3
    cjsw: float = 2.0e-10
    ldiff: float = 0.48e-6
    ld: float = 0.0

    def __post_init__(self):
        if self.mtype not in ("n", "p"):
            raise NetlistError(f"MosModel {self.name}: mtype must be 'n' or 'p'")
        if self.kp <= 0:
            raise NetlistError(f"MosModel {self.name}: kp must be positive")
        if self.phi <= 0:
            raise NetlistError(f"MosModel {self.name}: phi must be positive")
        if self.tox <= 0:
            raise NetlistError(f"MosModel {self.name}: tox must be positive")

    @property
    def sign(self) -> float:
        """+1 for NMOS, -1 for PMOS."""
        return 1.0 if self.mtype == "n" else -1.0

    @property
    def cox(self) -> float:
        """Gate capacitance per unit area (F/m^2)."""
        return EPS_OX / self.tox


@dataclass(frozen=True)
class Mosfet(Device):
    """MOSFET instance ``M<name> d g s b <model> w=... l=... m=...``."""

    d: str
    g: str
    s: str
    b: str
    model: str
    w: float
    l: float
    m: float = 1.0

    def __init__(self, name: str, d: str, g: str, s: str, b: str,
                 model: str | MosModel, w: float | str, l: float | str,
                 m: float = 1.0):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "b", b)
        model_name = model.name if isinstance(model, MosModel) else model
        object.__setattr__(self, "model", model_name)
        w_val = parse_value(w)
        l_val = parse_value(l)
        if w_val <= 0 or l_val <= 0:
            raise NetlistError(f"{name}: W and L must be positive")
        object.__setattr__(self, "w", w_val)
        object.__setattr__(self, "l", l_val)
        if m < 1:
            raise NetlistError(f"{name}: multiplicity m must be >= 1")
        object.__setattr__(self, "m", float(m))

    @property
    def nodes(self) -> tuple[str, ...]:
        return (self.d, self.g, self.s, self.b)

    def renamed(self, name: str, node_map: dict[str, str]) -> "Mosfet":
        return Mosfet(
            name,
            node_map.get(self.d, self.d),
            node_map.get(self.g, self.g),
            node_map.get(self.s, self.s),
            node_map.get(self.b, self.b),
            self.model,
            self.w,
            self.l,
            self.m,
        )


#: Rows of :attr:`MosEval.v_eff` (drain, gate, source, bulk in the
#: effective frame) whose differences are ``vgs``, ``vds``, ``vsb``.
_HI = np.array([1, 0, 2])
_LO = np.array([2, 2, 3])


@dataclass
class MosEval:
    """Result of a vectorized large-signal evaluation.

    All quantities are expressed in the *effective* (possibly swapped)
    drain/source frame; ``d_eff``/``s_eff`` give the node indices to stamp
    against.  ``ids`` is the current flowing from ``d_eff`` to ``s_eff``
    for NMOS sign convention already applied (i.e. it is the physical
    terminal current into the effective drain).
    """

    ids: np.ndarray
    gm: np.ndarray
    gds: np.ndarray
    gmb: np.ndarray
    #: (4, count) node indices of drain, gate, source, bulk, effective frame.
    terminals: np.ndarray
    #: (4, count) voltages at :attr:`terminals`.
    v_eff: np.ndarray
    #: devices whose drain and source are swapped (``VDS < 0``).
    reversed: np.ndarray
    vgs: np.ndarray
    vds: np.ndarray
    cutoff: np.ndarray
    triode: np.ndarray

    @property
    def d_eff(self) -> np.ndarray:
        return self.terminals[0]

    @property
    def s_eff(self) -> np.ndarray:
        return self.terminals[2]

    @property
    def region(self) -> np.ndarray:
        """0 = cutoff, 1 = triode, 2 = saturation."""
        return np.where(self.cutoff, 0, np.where(self.triode, 1, 2))


class MosGroup:
    """All MOSFETs of a circuit packed into parameter arrays.

    Node indices follow the MNA convention where ground is mapped to a
    sentinel index (the compiler stamps into an oversized matrix and drops
    the ground row/column afterwards), so no masking is needed here.
    """

    def __init__(self, devices: Sequence[Mosfet],
                 models: dict[str, MosModel],
                 node_index: dict[str, int]):
        self.devices = list(devices)
        n = len(self.devices)
        self.count = n
        self.names = [dev.name for dev in self.devices]
        get = node_index.__getitem__
        self.nd = np.array([get(dev.d) for dev in self.devices], dtype=np.intp)
        self.ng = np.array([get(dev.g) for dev in self.devices], dtype=np.intp)
        self.ns = np.array([get(dev.s) for dev in self.devices], dtype=np.intp)
        self.nb = np.array([get(dev.b) for dev in self.devices], dtype=np.intp)
        # Terminal indices in the forward and the drain/source-swapped
        # frame, gathered with one fancy index per evaluation.
        self.terminals = np.stack([self.nd, self.ng, self.ns, self.nb])
        self.terminals_rev = np.stack([self.ns, self.ng, self.nd, self.nb])

        def model_of(dev: Mosfet) -> MosModel:
            try:
                return models[dev.model]
            except KeyError:
                raise NetlistError(
                    f"{dev.name}: unknown MOS model {dev.model!r}") from None

        mods = [model_of(dev) for dev in self.devices]
        self.sign = np.array([mod.sign for mod in mods])
        leff = np.array([max(dev.l - 2 * mod.ld, 1e-9)
                         for dev, mod in zip(self.devices, mods)])
        width = np.array([dev.w * dev.m for dev in self.devices])
        self.beta = np.array([mod.kp for mod in mods]) * width / leff
        self.vto = np.array([mod.vto for mod in mods])
        self.gamma = np.array([mod.gamma for mod in mods])
        self.phi = np.array([mod.phi for mod in mods])
        self.lambd = np.array([mod.lambd for mod in mods])
        # Bias-independent terms of the evaluation.
        self.half_beta = 0.5 * self.beta
        self.sign_vto = self.sign * self.vto
        self.sqrt_phi = np.sqrt(self.phi)
        self.phi_floor = 0.02 * self.phi
        # Charge-model constants.
        cox_tot = np.array([mod.cox for mod in mods]) * width * leff
        self.cox_tot = cox_tot
        self.half_cox = 0.5 * cox_tot
        self.two_thirds_cox = (2.0 / 3.0) * cox_tot
        self.c_ov_gs = np.array([mod.cgso for mod in mods]) * width
        self.c_ov_gd = np.array([mod.cgdo for mod in mods]) * width
        self.c_ov_gb = np.array([mod.cgbo for mod in mods]) * leff
        area = width * np.array([mod.ldiff for mod in mods])
        perim = width + 2 * np.array([mod.ldiff for mod in mods])
        self.c_jxn = (np.array([mod.cj for mod in mods]) * area
                      + np.array([mod.cjsw for mod in mods]) * perim)

    @_trace.timed("spice.mos_eval")
    def evaluate(self, v: np.ndarray) -> MosEval:
        """Vectorized large-signal evaluation at node-voltage vector *v*.

        *v* must include the sentinel ground entry (value 0) so that plain
        fancy indexing works for grounded terminals.
        """
        vd, vs = v[self.terminals[::2]]
        sign = self.sign

        # Work in the NMOS-equivalent frame.
        reversed_mode = sign * (vd - vs) < 0.0
        terminals = np.where(reversed_mode, self.terminals_rev,
                             self.terminals)
        v_eff = v[terminals]
        vgs, vds, vsb = sign * (v_eff[_HI] - v_eff[_LO])

        sqrt_term = np.sqrt(np.maximum(self.phi + vsb, self.phi_floor))
        vt = self.sign_vto + self.gamma * (sqrt_term - self.sqrt_phi)
        dvt_dvsb = self.gamma / (2.0 * sqrt_term)

        vov = vgs - vt
        clm = 1.0 + self.lambd * vds

        cutoff = vov <= 0.0
        triode = (~cutoff) & (vds < vov)

        beta = self.beta
        # Triode region.
        q_t = beta * (vov * vds - 0.5 * vds * vds)
        ids_t = q_t * clm
        gm_t = beta * vds * clm
        gds_t = beta * (vov - vds) * clm + q_t * self.lambd
        # Saturation region.
        q_s = self.half_beta * vov * vov
        ids_s = q_s * clm
        gm_s = beta * vov * clm
        gds_s = q_s * self.lambd

        ids = np.where(triode, ids_t, np.where(cutoff, 0.0, ids_s))
        gm = np.where(triode, gm_t, np.where(cutoff, 0.0, gm_s))
        gds = np.where(triode, gds_t, np.where(cutoff, 0.0, gds_s))
        gmb = gm * dvt_dvsb

        # Map back to physical current: in the NMOS frame ids flows from
        # effective drain to effective source; multiply by sign for PMOS.
        return MosEval(
            ids=sign * ids,
            gm=gm,
            gds=gds,
            gmb=gmb,
            terminals=terminals,
            v_eff=v_eff,
            reversed=reversed_mode,
            vgs=vgs,
            vds=vds,
            cutoff=cutoff,
            triode=triode,
        )

    def capacitances(self, v: np.ndarray,
                     ev: MosEval | None = None) -> dict[str, np.ndarray]:
        """Meyer gate capacitances + overlaps + zero-bias junctions.

        *ev* is the evaluation at *v* when the caller already has it;
        otherwise *v* is evaluated here.  Returns arrays ``cgs, cgd,
        cgb, cbd, cbs`` (F), in the *physical* terminal frame (swap
        handled internally).
        """
        if ev is None:
            ev = self.evaluate(v)
        cutoff, triode = ev.cutoff, ev.triode
        cgb_i = np.where(cutoff, self.cox_tot, 0.0)
        cgd_i = np.where(triode, self.half_cox, 0.0)
        cgs_i = np.where(triode, self.half_cox,
                         np.where(cutoff, 0.0, self.two_thirds_cox))

        # Meyer "cgs"/"cgd" are referenced to the effective source/drain;
        # when the device is reversed, swap them back to physical terms.
        cgs = np.where(ev.reversed, cgd_i, cgs_i) + self.c_ov_gs
        cgd = np.where(ev.reversed, cgs_i, cgd_i) + self.c_ov_gd
        cgb = cgb_i + self.c_ov_gb
        cbd = self.c_jxn.copy()
        cbs = self.c_jxn.copy()
        return {"cgs": cgs, "cgd": cgd, "cgb": cgb, "cbd": cbd, "cbs": cbs}
