"""The Newton loop's linear solve against SciPy's LAPACK ``dgesv``.

``repro.spice.mna`` calls NumPy's ``gesv`` gufunc; these tests keep
SciPy's ``dgesv`` as the reference: the same solution, bit for bit, on
every matrix the Table-1 testbench stamps, and the same zero pivot on a
singular matrix.
"""

import numpy as np
import pytest
from scipy.linalg.lapack import dgesv

from repro.experiments.table1_cpu import make_table1_waveform
from repro.spice import mna
from repro.spice.devices.sources import VoltageSource
from repro.spice.mna import MnaSystem, zero_pivot
from repro.spice.netlist import Circuit
from repro.uwb.config import UwbConfig
from repro.uwb.system import build_ams_receiver

STEPS = 200


@pytest.fixture(scope="module")
def stamped():
    """``(A, b)`` of every Newton iteration over the first
    :data:`STEPS` ELDO-row steps (the DC operating point included)."""
    systems = []
    solve = mna._gesv

    def recording(a, b):
        systems.append((a.copy(order="F"), b.copy()))
        return solve(a, b)

    config = UwbConfig()
    waveform, _bits = make_table1_waveform(config, 2, 1)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mna, "_gesv", recording)
        simulator, _harvest = build_ams_receiver(config, "circuit",
                                                 waveform)
        simulator.run_steps(STEPS)
    return systems


def test_table1_solves_equal_dgesv(stamped):
    assert len(stamped) > STEPS
    for a, b in stamped:
        _lu, _piv, x, info = dgesv(a, b)
        assert info == 0
        assert np.array_equal(mna._gesv(a, b), x)


@pytest.mark.parametrize("column", [0, 1, 7, 25])
@pytest.mark.parametrize("shuffle", [False, True])
def test_zero_pivot_equals_dgesv_info(stamped, column, shuffle):
    """A stamped matrix with one column zeroed (its rows shuffled, so
    the pivots must be searched for): the first zero pivot is that
    column's, as ``dgesv`` reports it."""
    a = stamped[len(stamped) // 2][0].copy(order="F")
    if shuffle:
        a = a[np.random.default_rng(column).permutation(len(a))]
    a[:, column] = 0.0
    _lu, _piv, _x, info = dgesv(a, np.ones(len(a)))
    assert zero_pivot(a) == info == column + 1


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_regular_matrix_has_no_zero_pivot(stamped, seed):
    """Also with the rows shuffled, which puts zeros on the diagonal."""
    a = stamped[0][0][np.random.default_rng(seed).permutation(26)]
    assert zero_pivot(stamped[0][0]) == zero_pivot(a) == 0


def test_conflicting_sources_zero_pivot_equals_dgesv():
    ckt = Circuit("conflict")
    ckt.add(VoltageSource("v1", "a", "0", dc=1.0),
            VoltageSource("v2", "a", "0", dc=2.0))
    system = MnaSystem(ckt)
    a, b = system.split(system.linear_stamps())
    _lu, _piv, _x, info = dgesv(a, b)
    assert info > 0
    assert zero_pivot(a) == info
