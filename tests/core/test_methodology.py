"""CPU-time and system-metric comparison reports."""

import numpy as np
import pytest

from repro.core.metrics import CpuTimeReport, RangingComparison, compare_ber
from repro.uwb.fastsim import BerResult
from repro.uwb.ranging import RangingResult


class TestMetrics:
    def test_cpu_report(self):
        rep = CpuTimeReport(simulated_time=30e-6)
        rep.add("ELDO", 3573.0)
        rep.add("VHDL-AMS", 1237.0)
        rep.add("IDEAL", 551.0)
        assert rep.ratio("ELDO", "IDEAL") == pytest.approx(6.48, abs=0.01)
        table = rep.format_table()
        assert "ELDO" in table and "59 m" in table
        assert CpuTimeReport(1e-6).format_table() == "(no entries)"

    def test_ber_comparison(self):
        grid = np.array([0.0, 10.0])
        a = BerResult(grid, np.array([0.1, 0.01]),
                      np.array([10, 10]), np.array([100, 1000]),
                      label="ideal")
        b = BerResult(grid, np.array([0.1, 0.005]),
                      np.array([10, 5]), np.array([100, 1000]),
                      label="circuit")
        cmp_ = compare_ber(a, b)
        assert cmp_.wins_at_high_snr() == "circuit"
        assert "circuit" in cmp_.format_table()

    def test_ber_grid_mismatch(self):
        a = BerResult(np.array([0.0]), np.array([0.1]),
                      np.array([1]), np.array([10]))
        b = BerResult(np.array([1.0]), np.array([0.1]),
                      np.array([1]), np.array([10]))
        with pytest.raises(ValueError):
            compare_ber(a, b)

    def test_ranging_comparison(self):
        ideal = RangingResult(np.array([10.0, 10.2, 9.9]), 9.9)
        circ = RangingResult(np.array([11.1, 11.2, 11.15]), 9.9)
        cmp_ = RangingComparison()
        cmp_.add("ideal", ideal)
        cmp_.add("circuit", circ)
        assert cmp_.offset_increased("ideal", "circuit")
        assert cmp_.variance_decreased("ideal", "circuit")
        assert "circuit" in cmp_.format_table()

    def test_ranging_result_stats(self):
        res = RangingResult(np.array([10.0, 11.0]), 9.9)
        assert res.mean == pytest.approx(10.5)
        assert res.variance == pytest.approx(0.5)
        assert res.offset == pytest.approx(0.6)
        single = RangingResult(np.array([10.0]), 9.9)
        assert single.variance == 0.0
