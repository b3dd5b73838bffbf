"""The exact energy-detection BER (``repro.uwb.theory``) as the oracle
of the Monte-Carlo link.

The oracle shares no code with the chunk loop (see
``test_layering.py``), so it judges the loop's counts statistically
rather than bit for bit: a count is consistent with the exact value
when the exact value lies inside the count's 99.99% Wilson interval.
"""

import json
import pathlib

import numpy as np
import pytest
from scipy.special import erfc

from repro.experiments.fig6_ber import BER_DRIVE, WIDE_FRONT_END
from repro.link import ops
from repro.link.backends import build_bpf, calibrate
from repro.link.spec import FrontEndSpec, LinkSpec
from repro.uwb.config import TEST_CONFIG, UwbConfig
from repro.uwb.fastsim import wilson_interval
from repro.uwb.theory import (
    HISTORY,
    _ideal_awgn_ber,
    ideal_awgn_ber,
    pilot_energy,
)

REFERENCE = (pathlib.Path(__file__).resolve().parents[2]
             / "perfbench" / "reference.json")
CONFIDENCE = 0.9999
GRID = (0.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0)

#: the fig6 link of the ``ber_fig6`` reference cells.
FIG6 = LinkSpec(config=UwbConfig(),
                frontend=FrontEndSpec(band=WIDE_FRONT_END,
                                      squarer_drive=BER_DRIVE),
                integrator="ideal")


#: the exact fig6 curve on :data:`GRID`, recorded with SciPy's
#: ``toeplitz``/``qr``/``eigh`` before the oracle moved to NumPy's
#: linear algebra.
RECORDED = (0.4616736902066303, 0.43970858860120676, 0.40573886893262556,
            0.3544206985111785, 0.2806305396688231, 0.1851134695496155,
            0.08596493520322522, 0.020068078601788386)


@pytest.fixture(scope="module")
def exact():
    return dict(zip(GRID, ideal_awgn_ber(FIG6.config, build_bpf(FIG6),
                                         GRID)))


def inside_wilson(errors: int, bits: int, p: float) -> bool:
    lo, hi = wilson_interval(int(errors), int(bits), CONFIDENCE)
    return lo <= p <= hi


def test_reference_ideal_cells_match_the_exact_curve(exact):
    """Every ``ideal@*`` cell of the recorded ``ber_fig6`` reference
    (320,000 bits each) holds the exact value in its Wilson
    interval."""
    cells = json.loads(REFERENCE.read_text())["ber_fig6"]["cells"]
    ideal = sorted(name for name in cells if name.startswith("ideal@"))
    assert ideal == sorted(f"ideal@{p:g}dB" for p in GRID)
    off = [name for name in ideal
           if not inside_wilson(*cells[name],
                                exact[float(name[6:-2])])]
    assert not off, f"off the exact curve: {off}"


def test_exact_curve_is_pinned(exact):
    """A change of linear-algebra backend (or of the integral) shows
    as a number, not only as a Wilson-interval pass."""
    assert [exact[p] for p in GRID] == pytest.approx(RECORDED, rel=1e-9)


def test_sweep_counts_match_the_exact_curve(exact):
    """The current chunk loop, fixed 20,000 bits per point."""
    bits = 20_000
    curve = ops.ber_curve(FIG6, GRID, np.random.default_rng(2),
                          target_errors=bits + 1, max_bits=bits,
                          min_bits=bits)
    off = [p for p, e, n in zip(GRID, curve.errors, curve.bits)
           if not inside_wilson(e, n, exact[p])]
    assert not off, f"off the exact curve at {off} dB"


def test_energy_detection_sits_right_of_coherent(exact):
    """Noncoherent energy detection loses to coherent orthogonal 2-PPM
    ``Q(sqrt(Eb/N0))`` at every point, and falls with Eb/N0."""
    ebn0 = 10.0 ** (np.array(GRID) / 10.0)
    coherent = 0.5 * erfc(np.sqrt(ebn0 / 2.0))
    assert coherent[0] == pytest.approx(0.1587, abs=1e-3)  # Q(1)
    ber = np.array([exact[p] for p in GRID])
    assert np.all(ber > coherent)
    assert np.all(np.diff(ber) < 0)
    assert 0.0 < ber[-1] < ber[0] < 0.5


def test_energy_per_bit_follows_the_golden_model_convention():
    """Same pilot convention as the link calibration (recomputed, not
    shared), so both sides size sigma alike."""
    spec = LinkSpec(config=TEST_CONFIG)
    assert pilot_energy(TEST_CONFIG, build_bpf(spec)) == pytest.approx(
        calibrate(spec).eb, rel=1e-12)


def test_history_length_does_not_move_the_curve():
    """The conditioned history covers the ringing of the narrow test
    band-pass: one more symbol changes nothing."""
    bpf = build_bpf(LinkSpec(config=TEST_CONFIG))
    short = ideal_awgn_ber(TEST_CONFIG, bpf, (4.0, 12.0))
    long = _ideal_awgn_ber(TEST_CONFIG, bpf, (4.0, 12.0), HISTORY + 1)
    np.testing.assert_allclose(short, long, rtol=1e-6)
