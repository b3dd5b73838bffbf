"""Process / supply corner analysis of the Integrate & Dump.

The paper motivates the CMFB network by the output nodes being "subject
to temperature and power supply voltage variations causing the output to
float", and specifies a 0-90 C operating range on the UMC process.  This
module provides the corresponding verification machinery:

* :func:`corner_models` - FF/SS/FS/SF/TT model-card sets derived from the
  generic 0.18 um library by shifting VTO and KP (the level-1 knobs that
  dominate corner behaviour),
* :func:`corner_sweep` - figure-4 characterization (gain + poles) of the
  I&D at every corner and supply point,
* :func:`cmfb_regulation` - output common-mode error versus supply
  voltage (what the CMFB must keep small).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.circuits.integrate_dump import build_id_testbench
from repro.circuits.sizing import default_design
from repro.spice.devices.mosfet import MosModel
from repro.spice.library import generic_018

#: (vto shift in volts for NMOS / sign-mirrored for PMOS, kp scale)
CORNER_SHIFTS: dict[str, tuple[float, float, float, float]] = {
    # name: (nmos dvto, nmos kp x, pmos dvto, pmos kp x)
    "tt": (0.0, 1.00, 0.0, 1.00),
    "ff": (-0.05, 1.10, -0.05, 1.10),
    "ss": (+0.05, 0.90, +0.05, 0.90),
    "fs": (-0.05, 1.10, +0.05, 0.90),
    "sf": (+0.05, 0.90, -0.05, 1.10),
}


def corner_models(corner: str) -> dict[str, MosModel]:
    """The generic-0.18 um library shifted to *corner* (tt/ff/ss/fs/sf).

    NMOS cards get ``(dvto_n, kp*x_n)``; PMOS cards mirror the VTO shift
    (a "fast" PMOS has a *less negative* threshold).
    """
    try:
        dvto_n, kp_n, dvto_p, kp_p = CORNER_SHIFTS[corner.lower()]
    except KeyError:
        raise ValueError(f"unknown corner {corner!r}; pick one of "
                         f"{sorted(CORNER_SHIFTS)}") from None
    cards = {}
    for name, card in generic_018().items():
        if card.mtype == "n":
            cards[name] = replace(card, vto=card.vto + dvto_n,
                                  kp=card.kp * kp_n)
        else:
            cards[name] = replace(card, vto=card.vto - dvto_p,
                                  kp=card.kp * kp_p)
    return cards


def _swap_models(circuit, cards: dict[str, MosModel]) -> None:
    for name, card in cards.items():
        circuit.models[name] = card


@dataclass
class CornerPoint:
    """One corner/supply characterization result."""

    corner: str
    vdd: float
    gain_db: float
    fp1_hz: float
    fp2_hz: float
    output_cm: float


def corner_sweep(corners=("tt", "ff", "ss", "fs", "sf"),
                 vdd_points=(1.62, 1.8, 1.98)) -> list[CornerPoint]:
    """Characterize the I&D across corners and +/-10 % supply.

    Returns one :class:`CornerPoint` per (corner, vdd) combination.
    """
    from repro.core.characterize import ID_OP_GUESS, fit_two_pole
    from repro.spice import ac_analysis, operating_point
    from repro.spice.analysis.ac import logspace_freqs
    from repro.spice.devices.sources import VoltageSource

    design = default_design()
    freqs = logspace_freqs(1e3, 50e9, 6)
    results = []
    for corner in corners:
        cards = corner_models(corner)
        for vdd in vdd_points:
            tb = build_id_testbench(design, mode="integrate", ac=True)
            _swap_models(tb, cards)
            tb.replace_device(VoltageSource("vdd", "vdd", "0", dc=vdd))
            op = operating_point(tb, initial_guess=ID_OP_GUESS)
            ac = ac_analysis(tb, freqs, op=op)
            fit = fit_two_pole(freqs, ac.mag_db("out_intp", "out_intm"))
            cm = 0.5 * (op.v("x1.outp") + op.v("x1.outm"))
            results.append(CornerPoint(
                corner=corner, vdd=vdd, gain_db=fit.gain_db,
                fp1_hz=fit.fp1_hz, fp2_hz=fit.fp2_hz, output_cm=cm))
    return results


def cmfb_regulation(vdd_points=(1.6, 1.7, 1.8, 1.9, 2.0)
                    ) -> list[tuple[float, float]]:
    """Output common-mode voltage versus supply (CMFB at work).

    Returns ``(vdd, output_cm)`` pairs; a working CMFB keeps the output
    CM near ``design.output_cm`` across the sweep, which is precisely
    why the paper calls the block "fundamental".
    """
    from repro.core.characterize import ID_OP_GUESS
    from repro.spice import operating_point
    from repro.spice.devices.sources import VoltageSource

    design = default_design()
    out = []
    for vdd in vdd_points:
        tb = build_id_testbench(design, mode="integrate")
        tb.replace_device(VoltageSource("vdd", "vdd", "0", dc=vdd))
        op = operating_point(tb, initial_guess=ID_OP_GUESS)
        cm = 0.5 * (op.v("x1.outp") + op.v("x1.outm"))
        out.append((vdd, cm))
    return out


def format_corner_table(points: list[CornerPoint]) -> str:
    """Human-readable corner report."""
    lines = [f"{'corner':<7s} {'vdd':>5s} {'gain':>8s} {'fp1':>10s} "
             f"{'fp2':>9s} {'out CM':>7s}"]
    for p in points:
        lines.append(
            f"{p.corner:<7s} {p.vdd:>4.2f} {p.gain_db:>6.2f}dB "
            f"{p.fp1_hz / 1e6:>7.2f}MHz {p.fp2_hz / 1e9:>6.2f}GHz "
            f"{p.output_cm:>6.3f}V")
    return "\n".join(lines)
