"""Golden model versus AMS kernel: the Phase-I validation.

One seeded BER point must agree between the golden model and the AMS
kernel testbench within the Wilson interval, and the two kernel
engines must demodulate bit-identical decisions.
"""

import numpy as np
import pytest

from repro.link import ops, run_equivalence
from repro.link.backends import draw_stimulus
from repro.link.equivalence import DEFAULT_SPEC, decide_burst
from repro.uwb.fastsim import wilson_interval


@pytest.fixture(scope="module")
def result():
    return run_equivalence(bits=150, seed=23)


class TestEquivalenceHarness:
    def test_engines_bit_identical(self, result):
        assert result.engines_identical

    def test_fastsim_within_kernel_wilson_interval(self, result):
        for engine in ("compiled", "reference"):
            assert result.agrees(engine), result.format_report()
        assert result.all_agree()

    def test_report_text(self, result):
        text = result.format_report()
        assert "fastsim" in text and "kernel/compiled" in text
        assert "bit-identical: True" in text

    def test_interval_is_wilson(self, result):
        assert result.interval(result.fastsim_errors) == \
            wilson_interval(result.fastsim_errors, result.bits, 0.95)

    def test_seeded_reproducibility(self, result):
        again = run_equivalence(bits=150, seed=23)
        assert again.fastsim_errors == result.fastsim_errors
        assert again.kernel_errors == result.kernel_errors

    def test_pinned_error_counts(self, result):
        """Counters recorded before the stimulus moved onto the shared
        pipeline front; the draw order (bits, then noise) must not
        move them."""
        assert result.bits == 150
        assert result.fastsim_errors == 18
        assert result.kernel_errors == {"compiled": 16, "reference": 16}

    def test_different_seed_changes_noise(self, result):
        other = run_equivalence(bits=150, seed=24)
        assert (other.fastsim_errors != result.fastsim_errors
                or other.kernel_errors != result.kernel_errors)


class TestBerPointAgreement:
    def test_seeded_phase12_point_agrees(self):
        """One seeded Phase-I/II BER point: the golden-model BER op and
        the kernel testbench (both engines, on an independently drawn
        400-bit burst) agree within the Wilson interval."""
        spec = DEFAULT_SPEC
        ebn0 = 8.0
        curve = ops.ber_curve(
            spec, [ebn0], np.random.default_rng(11),
            target_errors=10 ** 9, max_bits=400, min_bits=400,
            chunk_bits=100)
        fast_e, fast_b = int(curve.errors[0]), int(curve.bits[0])
        lo_f, hi_f = wilson_interval(fast_e, fast_b)
        tx, driven = draw_stimulus(spec, ebn0, 400,
                                   np.random.default_rng(11))
        _, kernel = decide_burst(spec, driven, ("compiled", "reference"))
        for engine, decided in kernel.items():
            kern_e = int(np.count_nonzero(decided != tx))
            lo_k, hi_k = wilson_interval(kern_e, len(tx))
            assert lo_f <= hi_k and lo_k <= hi_f, (
                f"{engine}: fastsim {fast_e}/{fast_b} vs kernel "
                f"{kern_e}/{len(tx)}")

    def test_kernel_engines_identical_counters(self):
        _, driven = draw_stimulus(DEFAULT_SPEC, 8.0, 200,
                                  np.random.default_rng(11))
        _, kernel = decide_burst(DEFAULT_SPEC, driven,
                                 ("compiled", "reference"))
        assert np.array_equal(kernel["compiled"], kernel["reference"])


class TestEquivalenceAcrossModels:
    @pytest.mark.parametrize("name", ["two_pole", "surrogate"])
    def test_phase_iv_models_also_agree(self, name):
        res = run_equivalence(DEFAULT_SPEC.with_(integrator=name),
                              bits=120, seed=29)
        assert res.engines_identical
        assert res.all_agree(), res.format_report()
