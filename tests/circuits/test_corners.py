"""Process/supply corner checks of the I&D circuit.

The corner model cards are the generic 0.18 um library with VTO and KP
shifted (the level-1 knobs that dominate corner behaviour); the supply
points replace the testbench's ``vdd`` source."""

from dataclasses import replace

import pytest

from repro.circuits.integrate_dump import build_id_testbench
from repro.circuits.sizing import default_design
from repro.core.characterize import ID_OP_GUESS, fit_two_pole
from repro.spice.analysis.ac import ac_analysis, logspace_freqs
from repro.spice.analysis.op import operating_point
from repro.spice.devices.sources import VoltageSource
from repro.spice.library import generic_018

#: corner: (nmos dvto, nmos kp x, pmos dvto, pmos kp x)
CORNER_SHIFTS = {
    "tt": (0.0, 1.00, 0.0, 1.00),
    "ff": (-0.05, 1.10, -0.05, 1.10),
    "ss": (+0.05, 0.90, +0.05, 0.90),
}


def corner_models(corner: str) -> dict:
    """The library shifted to *corner*; PMOS cards mirror the VTO shift
    (a "fast" PMOS has a *less negative* threshold)."""
    dvto_n, kp_n, dvto_p, kp_p = CORNER_SHIFTS[corner]
    return {name: replace(card, vto=card.vto + dvto_n, kp=card.kp * kp_n)
            if card.mtype == "n" else
            replace(card, vto=card.vto - dvto_p, kp=card.kp * kp_p)
            for name, card in generic_018().items()}


def supply_testbench(vdd: float, cards: dict | None = None, *,
                     ac: bool = False):
    """The integrate-mode I&D testbench at supply *vdd*."""
    tb = build_id_testbench(default_design(), mode="integrate", ac=ac)
    tb.models.update(cards or {})
    names = [dev.name for dev in tb.devices]
    tb.devices[names.index("vdd")] = VoltageSource("vdd", "vdd", "0",
                                                   dc=vdd)
    return tb


def output_cm(op) -> float:
    return 0.5 * (op.v("x1.outp") + op.v("x1.outm"))


class TestCornerModels:
    def test_tt_is_nominal(self):
        assert corner_models("tt") == generic_018()

    def test_ff_shifts(self):
        cards = corner_models("ff")
        assert cards["nch"].vto == pytest.approx(0.40)
        assert cards["nch"].kp == pytest.approx(280e-6 * 1.1)
        # PMOS fast: threshold less negative
        assert cards["pch"].vto == pytest.approx(-0.40)

    def test_ss_shifts(self):
        cards = corner_models("ss")
        assert cards["nch"].vto == pytest.approx(0.50)
        assert cards["pch"].vto == pytest.approx(-0.50)


class TestCornerSweep:
    @pytest.fixture(scope="class")
    def points(self):
        """(corner, gain dB, dominant pole Hz, output CM) at the nominal
        supply and three process corners: enough to bound the spread
        without long runtimes."""
        freqs = logspace_freqs(1e3, 50e9, 6)
        points = []
        for corner in CORNER_SHIFTS:
            tb = supply_testbench(1.8, corner_models(corner), ac=True)
            op = operating_point(tb, initial_guess=ID_OP_GUESS)
            ac = ac_analysis(tb, freqs, op=op)
            fit = fit_two_pole(freqs, ac.mag_db("out_intp", "out_intm"))
            points.append((corner, fit.gain_db, fit.fp1_hz, output_cm(op)))
        return points

    def test_gain_stays_in_band(self, points):
        """The integrator's DC gain holds within a few dB across
        corners (no cascodes to collapse)."""
        for corner, gain_db, _fp1, _cm in points:
            assert 17.0 < gain_db < 26.0, (corner, gain_db)

    def test_dominant_pole_stays_sub_2mhz(self, points):
        for _corner, _gain, fp1_hz, _cm in points:
            assert 0.2e6 < fp1_hz < 3e6

    def test_cmfb_holds_cm_at_corners(self, points):
        """The CMFB keeps the output common mode near target at every
        corner - the property the paper calls 'fundamental'."""
        for corner, _gain, _fp1, cm in points:
            assert cm == pytest.approx(0.90, abs=0.12), corner


class TestSupplyRegulation:
    def test_cmfb_vs_supply(self):
        """Across +/-10 % supply the output CM stays locked to the
        (ratiometric) divider reference vdd/2: the loop error is small
        even though the high-impedance outputs would otherwise float
        (the paper's motivation for the CMFB)."""
        for vdd in (1.62, 1.8, 1.98):
            op = operating_point(supply_testbench(vdd),
                                 initial_guess=ID_OP_GUESS)
            assert output_cm(op) == pytest.approx(vdd / 2.0, abs=0.05), vdd
