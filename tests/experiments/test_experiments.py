"""End-to-end experiment harnesses reproduce the paper's shapes.

These are the repository's headline assertions: each test runs a
(reduced-budget) version of a paper experiment and checks the qualitative
claim.  The full-budget versions live in ``benchmarks/``.
"""

import numpy as np
import pytest

from repro.experiments import (
    run_agc_ablation,
    run_fig4,
    run_fig5,
    run_fig6,
    run_table1,
    run_table2,
)
from repro.link import run_equivalence
from repro.link.equivalence import PHASE1_SPEC


@pytest.fixture(scope="module")
def fig4():
    return run_fig4()


class TestFig4:
    def test_dc_gain_near_paper(self, fig4):
        assert fig4.fit.gain_db == pytest.approx(21.0, abs=2.5)

    def test_poles_in_paper_bands(self, fig4):
        assert 0.4e6 < fig4.fit.fp1_hz < 2e6
        assert 3e9 < fig4.fit.fp2_hz < 15e9

    def test_integrator_slope(self, fig4):
        assert fig4.slope_db_per_decade(10e6, 1e9) == pytest.approx(
            -20.0, abs=1.0)

    def test_model_overlap(self, fig4):
        """Paper: the behavioral model 'perfectly overlaps' the AC
        response."""
        assert fig4.overlap_rms_db < 0.5

    def test_report_text(self, fig4):
        text = fig4.format_report()
        assert "DC gain" in text and "paper" in text


class TestFig5:
    @pytest.fixture(scope="class")
    def fig5(self):
        return run_fig5(dt=0.2e-9)

    def test_three_trajectories_same_shape(self, fig5):
        """All three integrate to a comparable held value and reset."""
        circ = fig5.held_value(fig5.circuit)
        ideal = fig5.held_value(fig5.ideal)
        model = fig5.held_value(fig5.model)
        assert circ > 0.1 and ideal > 0.1 and model > 0.1
        assert model == pytest.approx(circ, rel=0.25)
        assert ideal == pytest.approx(circ, rel=0.35)

    def test_model_tracks_circuit_better_at_small_drive(self):
        small = run_fig5(diff_dc=0.02, dt=0.4e-9)
        large = run_fig5(diff_dc=0.15, dt=0.4e-9)
        assert (small.model_vs_circuit_mismatch
                < large.model_vs_circuit_mismatch)

    def test_reset(self, fig5):
        assert fig5.reset_works(tol=1e-2)


class TestFig6:
    @pytest.fixture(scope="class")
    def fig6(self):
        return run_fig6(ebn0_grid=(4.0, 9.0, 14.0), quick=True, seed=7)

    def test_monotone(self, fig6):
        assert fig6.monotone

    def test_circuit_not_worse_at_high_snr(self, fig6):
        """Paper: the circuit integrator wins slightly at high Eb/N0
        (paired noise makes this a tight comparison)."""
        ber_ideal = fig6.comparison.ber_a[-1]
        ber_circ = fig6.comparison.ber_b[-1]
        assert ber_circ <= ber_ideal * 1.10

    def test_report(self, fig6):
        assert "winner at high Eb/N0" in fig6.format_report()


class TestTable1:
    @pytest.fixture(scope="class")
    def table1(self):
        return run_table1(simulated_time=0.15e-6)

    def test_cosim_dominates(self, table1):
        assert table1.cosim_dominates()

    def test_all_models_demodulate_consistently(self, table1):
        assert np.array_equal(table1.bits["IDEAL"],
                              table1.bits["VHDL-AMS"])

    def test_report(self, table1):
        text = table1.format_report()
        assert "ELDO" in text and "paper ratios" in text


class TestTable2:
    @pytest.fixture(scope="class")
    def table2(self):
        return run_table2(iterations=8, seed=42)

    def test_both_models_near_true_distance(self, table2):
        for res in table2.comparison.entries.values():
            assert 9.0 < res.mean < 13.5

    def test_circuit_offset_larger(self, table2):
        """The paper's headline table-2 observation."""
        assert table2.comparison.offset_increased("ideal", "circuit")

    def test_positive_offsets(self, table2):
        for res in table2.comparison.entries.values():
            assert res.offset > -0.3

    def test_report(self, table2):
        assert "paper" in table2.format_report()


class TestPhase1:
    def test_overlap(self):
        res = run_equivalence(PHASE1_SPEC, ebn0_grid=(6.0, 10.0),
                              bits=50, seed=23, engines=("compiled",))
        assert res.decision_agreement > 0.9
        assert res.max_ber_gap < 0.08
        assert "agreement" in res.format_report()

    def test_pinned_overlap(self):
        """The Phase-I numbers at 60 bits/point, seed 23 (the `phase1`
        report prints these)."""
        res = run_equivalence(PHASE1_SPEC, ebn0_grid=(6.0, 10.0),
                              bits=60, seed=23, engines=("compiled",))
        assert res.kernel_ber("compiled").tolist() == [0.25, 1 / 30]
        assert res.golden_ber.tolist() == [4 / 15, 1 / 30]
        assert res.decision_agreement == 119 / 120


class TestAgcAblation:
    def test_two_stage_removes_offset(self):
        res = run_agc_ablation(iterations=6, seed=42)
        assert res.offset_reduction >= -0.05
        assert abs(res.two_stage.offset) <= abs(
            res.single_stage.offset) + 0.05
        assert "two-stage" in res.format_report()
