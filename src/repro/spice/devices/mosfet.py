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


#: Differences of the terminal voltages (drain, gate, source, bulk) that
#: give ``vgs``, ``vds``, ``vsb``: ``[0]`` as connected, ``[1]`` with
#: drain and source swapped.
_DIFF = np.array([[[0, 1, -1, 0], [1, 0, -1, 0], [0, 0, 1, -1]],
                  [[-1, 1, 0, 0], [-1, 0, 1, 0], [1, 0, 0, -1]]], dtype=float)


#: Device capacitances, in the row order of :meth:`MosGroup.cap_values`.
CAP_NAMES = ("cgs", "cgd", "cgb", "cbd", "cbs")


@dataclass
class MosEval:
    """Result of a vectorized large-signal evaluation.

    Voltages and derivatives are expressed in the NMOS-equivalent
    *effective* frame: drain and source are swapped where
    :attr:`reversed` is set, and ``vgs``/``vds``/``vsb`` carry the
    device sign (``vds >= 0``).  ``ids`` is the physical current into the
    effective drain (sign already applied).
    """

    ids: np.ndarray
    gm: np.ndarray
    gds: np.ndarray
    gmb: np.ndarray
    #: devices whose drain and source are swapped (``VDS < 0``).
    reversed: np.ndarray
    vgs: np.ndarray
    vds: np.ndarray
    vsb: np.ndarray
    #: gate overdrive ``vgs - vt``.
    vov: np.ndarray

    @property
    def cutoff(self) -> np.ndarray:
        return self.vov <= 0.0

    @property
    def triode(self) -> np.ndarray:
        # vds >= 0, so a device in cutoff is never in triode.
        return self.vds < self.vov

    @property
    def region(self) -> np.ndarray:
        """0 = cutoff, 1 = triode, 2 = saturation."""
        # A device in cutoff is never in triode (see above).
        return 2 * (self.vov > 0.0) - self.triode


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
        # Terminal indices, gathered with one fancy index per evaluation.
        self.terminals = np.stack([self.nd, self.ng, self.ns, self.nb])

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
        # Bias-independent terms of the evaluation:
        # vt = vt0 + gamma * sqrt(max(phi + vsb, phi_floor)).
        self.vt0 = self.sign * self.vto - self.gamma * np.sqrt(self.phi)
        self.phi_floor = 0.02 * self.phi
        self.half_gamma = 0.5 * self.gamma
        self.beta_lambd = self.beta * self.lambd
        # Charge model: Meyer, overlap and junction capacitances are
        # constant within each (region, reversed) case, so they are one
        # table lookup per accepted point (see :meth:`cap_values`).
        cox = np.array([mod.cox for mod in mods]) * width * leff
        c_ov = (np.array([mod.cgso for mod in mods]) * width,
                np.array([mod.cgdo for mod in mods]) * width,
                np.array([mod.cgbo for mod in mods]) * leff)
        area = width * np.array([mod.ldiff for mod in mods])
        perim = width + 2 * np.array([mod.ldiff for mod in mods])
        c_jxn = (np.array([mod.cj for mod in mods]) * area
                 + np.array([mod.cjsw for mod in mods]) * perim)
        zero = np.zeros(n)
        # Meyer (cgs, cgd, cgb) of the effective frame in cutoff, triode
        # and saturation.
        meyer = ((zero, zero, cox),
                 (0.5 * cox, 0.5 * cox, zero),
                 ((2.0 / 3.0) * cox, zero, zero))
        table = np.empty((len(CAP_NAMES), n, 6))
        for region, (cgs, cgd, cgb) in enumerate(meyer):
            for rev in (0, 1):
                # Meyer cgs/cgd are referenced to the effective source and
                # drain: a reversed device swaps them back to physical.
                if rev:
                    cgs, cgd = cgd, cgs
                table[:, :, 2 * region + rev] = (
                    cgs + c_ov[0], cgd + c_ov[1], cgb + c_ov[2],
                    c_jxn, c_jxn)
        #: ``cap_table[k, 6 * i + 2 * region + reversed]`` is capacitance
        #: ``CAP_NAMES[k]`` of device ``i`` (F, physical frame).
        self.cap_table = table.reshape(len(CAP_NAMES), 6 * n)
        self._cap_rows = 6 * np.arange(n)

    @_trace.timed("spice.mos_eval")
    def evaluate(self, v: np.ndarray) -> MosEval:
        """Vectorized large-signal evaluation at node-voltage vector *v*.

        *v* must include the sentinel ground entry (value 0) so that plain
        fancy indexing works for grounded terminals.
        """
        sign = self.sign
        # Work in the NMOS-equivalent frame, drain and source swapped
        # where the device conducts backwards.
        dv = sign * (_DIFF @ v[self.terminals])
        reversed_mode = dv[0, 1] < 0.0
        dv = np.where(reversed_mode, dv[1], dv[0])
        vgs, vds, vsb = dv[0], dv[1], dv[2]

        sqrt_term = np.sqrt(np.maximum(self.phi + vsb, self.phi_floor))
        vov = vgs - self.vt0 - self.gamma * sqrt_term
        # One square law for every region: the channel conducts over
        # v_eff = min(vds, max(vov, 0)), so ids = beta * v_eff *
        # (vov - v_eff / 2) * (1 + lambda * vds) is the triode law below
        # saturation, the saturation law above it and 0 in cutoff.
        v_on = np.maximum(vov, 0.0)
        v_eff = np.minimum(vds, v_on)
        u = v_on - 0.5 * v_eff
        beta_clm = self.beta + self.beta_lambd * vds
        gm = beta_clm * v_eff
        gds = beta_clm * (v_on - v_eff) + self.beta_lambd * v_eff * u

        # Map back to physical current: in the NMOS frame ids flows from
        # effective drain to effective source; multiply by sign for PMOS.
        return MosEval(
            ids=sign * (gm * u),
            gm=gm,
            gds=gds,
            gmb=gm * self.half_gamma / sqrt_term,
            reversed=reversed_mode,
            vgs=vgs,
            vds=vds,
            vsb=vsb,
            vov=vov,
        )

    def cap_values(self, ev: MosEval) -> np.ndarray:
        """Capacitances ``(len(CAP_NAMES), count)`` of evaluation *ev*,
        rows in :data:`CAP_NAMES` order."""
        return self.cap_table[:, self._cap_rows + 2 * ev.region
                              + ev.reversed]
