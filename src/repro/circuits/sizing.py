"""Sizing parameters for the Integrate & Dump circuit.

The default design follows the paper's description of the figure-3
circuit:

* source-follower input stage with an aspect ratio "on the order of 20",
* output-stage mirror ratio "of about 2",
* LV (low-threshold) transistors for headroom,
* 1 pF nominal integrating capacitor,
* no cascodes in the output stage (hence the ~21 dB DC gain).

The numeric sizes were calibrated against this repository's level-1
process (:func:`repro.spice.library.generic_018`) so the AC response hits
the paper's figure-4 targets: DC gain about 21 dB, dominant pole below
1 MHz, parasitic pole in the GHz range, integrator behaviour across
10 MHz - 1 GHz.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class MosSize:
    """Width/length/model of one transistor position."""

    w: float
    l: float
    model: str

    def scaled(self, factor: float) -> "MosSize":
        """Same device with width scaled by *factor* (mirror ratios)."""
        return replace(self, w=self.w * factor)


@dataclass(frozen=True)
class IntegrateDumpDesign:
    """Complete sizing of the Integrate & Dump unit.

    Attributes:
        vdd: supply voltage.
        c_int: integrating capacitor (paper: 1 pF nominal).
        input_cm: nominal input common-mode voltage the bias design
            assumes (the squarer / AGC interface must deliver this).
        output_cm: target output common-mode voltage (CMFB reference).
        follower: input source followers (M1p/M1m), aspect ratio ~20.
        diode: mirror master diodes (M2p/M2m); their gm sets the
            composite transconductance.
        mirror_ratio: output-stage mirror ratio (paper: about 2).
        pulldown_margin: extra ratio on the cross-coupled pull-down
            mirrors so the CMFB pull-ups have current authority.
        mirror_up_p: PMOS diode/slave pair of the pull-up path (the NMOS
            slaves are exact ratioed copies of ``diode``).
        cmfb_*: common-mode feedback network sizing.
        tg_*: transmission-gate switch sizing.
    """

    vdd: float = 1.8
    c_int: float = 1.0e-12
    input_cm: float = 1.27
    output_cm: float = 0.90

    # transconductance amplifier
    follower: MosSize = MosSize(3.6e-6, 0.18e-6, "nch_lv")
    diode: MosSize = MosSize(0.05e-6, 0.20e-6, "nch_lv")
    mirror_ratio: float = 2.0
    pulldown_margin: float = 1.25
    mirror_up_p: MosSize = MosSize(1.44e-6, 0.18e-6, "pch")

    # common-mode feedback
    cmfb_pullup: MosSize = MosSize(0.9e-6, 0.35e-6, "pch")
    cmfb_sense: MosSize = MosSize(2.0e-6, 0.18e-6, "nch_lv")
    cmfb_pair: MosSize = MosSize(1.0e-6, 0.36e-6, "nch_lv")
    cmfb_load: MosSize = MosSize(2.0e-6, 0.36e-6, "pch")
    cmfb_sense_res: float = 50e3
    cmfb_tail_res: float = 15e3
    cmfb_comp_cap: float = 47e-12

    # integration switches (full transmission gates + local inverters)
    tg_n: MosSize = MosSize(1.0e-6, 0.18e-6, "nch")
    tg_p: MosSize = MosSize(2.0e-6, 0.18e-6, "pch")
    inv_n: MosSize = MosSize(0.5e-6, 0.18e-6, "nch")
    inv_p: MosSize = MosSize(1.0e-6, 0.18e-6, "pch")


def default_design() -> IntegrateDumpDesign:
    """The calibrated baseline design used throughout the repository."""
    return IntegrateDumpDesign()
