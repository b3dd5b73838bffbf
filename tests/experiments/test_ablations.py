"""Ablation harnesses (noise shaping; AGC ablation is covered in
test_experiments.py)."""

import numpy as np
import pytest

from repro.core.metrics import CpuTimeReport
from repro.experiments.ablations import run_noise_shaping_ablation
from repro.experiments.table1_cpu import Table1Result
from repro.link import ops
from repro.link.spec import FrontEndSpec, LinkSpec
from repro.uwb.config import UwbConfig
from repro.uwb.integrator import TwoPoleIntegrator


class TestNoiseShaping:
    @pytest.fixture(scope="class")
    def result(self):
        return run_noise_shaping_ablation(
            ebn0_db=12.0, fp2_grid=(1e9, 6e9, 20e9), seed=7, quick=True)

    def test_shaping_direction(self, result):
        """Lowering fp2 into the squared-noise band must not hurt, and
        typically helps (the paper's figure-6 mechanism), with paired
        noise making the comparison deterministic."""
        assert result.ber_shaped[0] <= result.ber_ideal * 1.02

    def test_wide_pole_equals_ideal(self, result):
        """fp2 far above the noise band is indistinguishable from the
        ideal integrator."""
        assert result.ber_shaped[-1] == pytest.approx(
            result.ber_ideal, rel=0.1)

    def test_report(self, result):
        text = result.format_report()
        assert "noise shaping" in text and "vs ideal" in text

    def test_arms_equal_their_own_curves(self, result):
        """The one batched sweep grades each arm exactly as a
        one-integrator ``ber_curve`` of that arm from the same seed."""
        spec = LinkSpec(config=UwbConfig(),
                        frontend=FrontEndSpec(band=(2.0e9, 9.0e9)))
        budget = dict(target_errors=80, max_bits=60_000, min_bits=4_000)
        arms = [None, *(TwoPoleIntegrator(fp2_hz=f)
                        for f in result.fp2_grid)]
        bers = [float(ops.ber_curve(spec, [12.0], np.random.default_rng(7),
                                    integrator=arm, **budget).ber[0])
                for arm in arms]
        assert bers == [result.ber_ideal, *result.ber_shaped]


class TestTable1Helpers:
    def _result(self, eldo, model, ideal):
        report = CpuTimeReport(simulated_time=1e-6)
        report.add("ELDO", eldo)
        report.add("VHDL-AMS", model)
        report.add("IDEAL", ideal)
        return Table1Result(report=report, bits={}, tx_bits=np.zeros(0))

    def test_cosim_dominates(self):
        assert self._result(10.0, 0.5, 0.4).cosim_dominates()
        assert not self._result(0.6, 0.5, 0.4).cosim_dominates()

    def test_model_ratio(self):
        assert self._result(10.0, 0.8, 0.4).model_vs_ideal_ratio() == \
            pytest.approx(2.0)

    def test_report_mentions_paper(self):
        text = self._result(10.0, 0.5, 0.4).format_report()
        assert "paper ratios" in text
        assert "6.5x" in text
