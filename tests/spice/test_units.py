"""Engineering-notation parsing and formatting."""

import pytest
from hypothesis import given, strategies as st

from repro.spice.units import parse_value


class TestParseValue:
    @pytest.mark.parametrize("text,expected", [
        ("1", 1.0),
        ("1.5", 1.5),
        ("-3", -3.0),
        ("1e3", 1000.0),
        ("2.5E-9", 2.5e-9),
        ("1k", 1e3),
        ("1K", 1e3),
        ("2.2MEG", 2.2e6),
        ("2.2meg", 2.2e6),
        ("10u", 10e-6),
        ("0.5p", 0.5e-12),
        ("3n", 3e-9),
        ("4f", 4e-15),
        ("7m", 7e-3),
        ("1g", 1e9),
        ("1t", 1e12),
        ("5a", 5e-18),
        ("1mil", 25.4e-6),
    ])
    def test_suffixes(self, text, expected):
        assert parse_value(text) == pytest.approx(expected)

    @pytest.mark.parametrize("text,expected", [
        ("10pF", 10e-12),
        ("1kOhm", 1e3),
        ("3V", 3.0),
        ("2.5nH", 2.5e-9),
    ])
    def test_trailing_units_ignored(self, text, expected):
        assert parse_value(text) == pytest.approx(expected)

    def test_numbers_pass_through(self):
        assert parse_value(42) == 42.0
        assert parse_value(2.5) == 2.5

    @pytest.mark.parametrize("bad", ["", "abc", "k1", "--3", "1..2"])
    def test_rejects_garbage(self, bad):
        with pytest.raises(ValueError):
            parse_value(bad)

    def test_whitespace_tolerated(self):
        assert parse_value("  1k ") == 1000.0

    @given(st.floats(min_value=-1e20, max_value=1e20,
                     allow_nan=False, allow_infinity=False))
    def test_plain_float_roundtrip(self, x):
        assert parse_value(repr(x)) == pytest.approx(x, rel=1e-12)

