"""Engineering-notation number handling (Spice value suffixes).

Spice accepts values like ``1k``, ``10u``, ``2.2MEG``, ``0.5p`` and ignores
any trailing unit letters (``10pF``, ``1kOhm``).  :func:`parse_value`
implements that convention.
"""

from __future__ import annotations

import re

# Ordered so that 'meg' and 'mil' are matched before 'm'.
_SUFFIXES = (
    ("meg", 1e6),
    ("mil", 25.4e-6),
    ("t", 1e12),
    ("g", 1e9),
    ("k", 1e3),
    ("m", 1e-3),
    ("u", 1e-6),
    ("n", 1e-9),
    ("p", 1e-12),
    ("f", 1e-15),
    ("a", 1e-18),
)

_NUMBER_RE = re.compile(
    r"^\s*([+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)\s*([a-zA-Z]*)\s*$"
)


def parse_value(text: str | float | int) -> float:
    """Parse a Spice-style number with an optional engineering suffix.

    >>> parse_value("1k")
    1000.0
    >>> parse_value("2.2MEG")
    2200000.0
    >>> parse_value("10pF")
    1e-11

    Raises:
        ValueError: if *text* is not a number.
    """
    if isinstance(text, (int, float)):
        return float(text)
    match = _NUMBER_RE.match(text)
    if match is None:
        raise ValueError(f"not a Spice number: {text!r}")
    mantissa = float(match.group(1))
    suffix = match.group(2).lower()
    if not suffix:
        return mantissa
    for name, scale in _SUFFIXES:
        if suffix.startswith(name):
            return mantissa * scale
    # Unknown letters (e.g. plain units like "V" or "Hz") are ignored,
    # matching Spice behaviour.
    return mantissa

