"""Golden model versus AMS kernel: the Phase-I validation.

Seeded BER points must agree between the golden model and the AMS
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


def counts(res):
    """Per-engine kernel error counts as plain lists."""
    return {engine: errors.tolist()
            for engine, errors in res.kernel_errors.items()}


class TestEquivalenceHarness:
    def test_engines_bit_identical(self, result):
        assert result.engines_identical

    def test_fastsim_within_kernel_wilson_interval(self, result):
        for engine in ("compiled", "reference"):
            assert result.agrees(engine), result.format_report()
        assert result.all_agree()

    def test_report_text(self, result):
        text = result.format_report()
        assert "golden" in text and "kernel/compiled" in text
        assert "bit-identical: True" in text
        assert "all backends agree:    True" in text

    def test_interval_is_wilson(self, result):
        errors = int(result.golden_errors[0])
        assert result.interval(errors) == \
            wilson_interval(errors, result.bits, 0.95)

    def test_seeded_reproducibility(self, result):
        again = run_equivalence(bits=150, seed=23)
        assert again.golden_errors.tolist() == \
            result.golden_errors.tolist()
        assert counts(again) == counts(result)

    def test_pinned_error_counts(self, result):
        """Counters recorded before the stimulus moved onto the shared
        pipeline front; the draw order (bits, then noise) must not
        move them."""
        assert result.bits == 150
        assert result.ebn0_db.tolist() == [6.0]
        assert result.golden_errors.tolist() == [18]
        assert counts(result) == {"compiled": [16], "reference": [16]}

    def test_different_seed_changes_noise(self, result):
        other = run_equivalence(bits=150, seed=24)
        assert (other.golden_errors.tolist()
                != result.golden_errors.tolist()
                or counts(other) != counts(result))


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


class TestEquivalenceGrid:
    def test_first_point_is_the_one_point_run(self, result):
        """One generator draws the grid in order, so the first point of
        a grid reproduces the one-point run."""
        grid = run_equivalence(ebn0_grid=(6.0, 10.0), bits=150, seed=23)
        assert grid.golden_errors[0] == result.golden_errors[0]
        assert counts(grid)["compiled"][0] == counts(result)["compiled"][0]
        assert len(grid.golden_errors) == 2

    def test_needs_an_engine(self):
        with pytest.raises(ValueError):
            run_equivalence(bits=10, engines=())


class TestCircuitNetlistAgainstSurrogate:
    """The Phase-III oracle through the same harness: the golden arm
    grades the behavioral surrogate, the kernel co-simulates the
    transistor netlist on the same stimulus."""

    @pytest.fixture(scope="class")
    def circuit(self):
        return run_equivalence(DEFAULT_SPEC.with_(integrator="circuit"),
                               ebn0_grid=(6.0, 12.0), bits=40, seed=23,
                               engines=("compiled",))

    def test_pinned_decisions(self, circuit):
        assert circuit.golden_errors.tolist() == [0, 0]
        assert counts(circuit) == {"compiled": [1, 0]}
        assert circuit.decisions_agreed == 79
        assert circuit.decision_agreement == 79 / 80

    def test_every_point_agrees(self, circuit):
        assert circuit.all_agree(), circuit.format_report()
