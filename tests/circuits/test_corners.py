"""Process/supply corner analysis of the I&D circuit."""

import pytest

from repro.circuits.corners import (
    cmfb_regulation,
    corner_models,
    corner_sweep,
)


class TestCornerModels:
    def test_tt_is_nominal(self):
        from repro.spice.library import generic_018

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

    def test_unknown_corner(self):
        with pytest.raises(ValueError):
            corner_models("zz")


class TestCornerSweep:
    @pytest.fixture(scope="class")
    def points(self):
        # Nominal supply, three process corners: enough to bound the
        # spread without long runtimes.
        return corner_sweep(corners=("tt", "ff", "ss"),
                            vdd_points=(1.8,))

    def test_gain_stays_in_band(self, points):
        """The integrator's DC gain holds within a few dB across
        corners (no cascodes to collapse)."""
        for p in points:
            assert 17.0 < p.gain_db < 26.0, (p.corner, p.gain_db)

    def test_dominant_pole_stays_sub_2mhz(self, points):
        for p in points:
            assert 0.2e6 < p.fp1_hz < 3e6

    def test_cmfb_holds_cm_at_corners(self, points):
        """The CMFB keeps the output common mode near target at every
        corner - the property the paper calls 'fundamental'."""
        for p in points:
            assert p.output_cm == pytest.approx(0.90, abs=0.12), p.corner


class TestSupplyRegulation:
    def test_cmfb_vs_supply(self):
        """Across +/-10 % supply the output CM stays locked to the
        (ratiometric) divider reference vdd/2: the loop error is small
        even though the high-impedance outputs would otherwise float
        (the paper's motivation for the CMFB)."""
        pairs = cmfb_regulation(vdd_points=(1.62, 1.8, 1.98))
        for vdd, cm in pairs:
            assert cm == pytest.approx(vdd / 2.0, abs=0.05), vdd
