"""Cross-backend agreement: the Phase-I validation (satellite of the
front-door redesign).

One seeded BER point must agree between the golden model and the AMS
kernel testbench within the Wilson interval, and the two kernel
engines must demodulate bit-identical decisions.
"""

import numpy as np
import pytest

from repro.link import (
    FastsimBackend,
    KernelBackend,
    LinkSpec,
    run_equivalence,
)
from repro.link.equivalence import DEFAULT_SPEC
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
        """One seeded Phase-I/II BER point: FastsimBackend and
        KernelBackend (both engines) agree within the Wilson
        interval."""
        spec = DEFAULT_SPEC
        ebn0 = 8.0
        fast_e, fast_b = FastsimBackend().ber_point(
            spec, ebn0, np.random.default_rng(11),
            target_errors=10 ** 9, max_bits=400, min_bits=400,
            chunk_bits=100)
        lo_f, hi_f = wilson_interval(fast_e, fast_b)
        for engine in ("compiled", "reference"):
            kern_e, kern_b = KernelBackend(engine=engine).ber_point(
                spec, ebn0, np.random.default_rng(11),
                target_errors=10 ** 9, max_bits=400, min_bits=400,
                chunk_bits=100)
            lo_k, hi_k = wilson_interval(kern_e, kern_b)
            assert lo_f <= hi_k and lo_k <= hi_f, (
                f"{engine}: fastsim {fast_e}/{fast_b} vs kernel "
                f"{kern_e}/{kern_b}")

    def test_kernel_engines_identical_counters(self):
        spec = DEFAULT_SPEC
        counts = [
            KernelBackend(engine=engine).ber_point(
                spec, 8.0, np.random.default_rng(11),
                target_errors=10 ** 9, max_bits=200, min_bits=200,
                chunk_bits=100)
            for engine in ("compiled", "reference")]
        assert counts[0] == counts[1]


class TestEquivalenceAcrossModels:
    @pytest.mark.parametrize("name", ["two_pole", "surrogate"])
    def test_phase_iv_models_also_agree(self, name):
        res = run_equivalence(DEFAULT_SPEC.with_(integrator=name),
                              bits=120, seed=29)
        assert res.engines_identical
        assert res.all_agree(), res.format_report()
