"""Generic 0.18 um CMOS model library.

The paper's integrator uses the UMC mixed-mode 0.18 um 1.8 V process with
standard and low-threshold (LV) devices.  That PDK is proprietary, so we
provide a generic level-1 fit with the same flavor set:

* ``nch`` / ``pch``   - standard-VT core devices,
* ``nch_lv`` / ``pch_lv`` - low-VT devices (the paper uses LV transistors
  for headroom in the current-mode integrator),

All cards share a 4.1 nm oxide and 1.8 V nominal supply.  The relatively
large ``lambd`` values reflect short-channel output conductance of
minimum-length 0.18 um devices squeezed into a level-1 model; they are
what gives the integrator its paper-like finite DC gain (21 dB) without a
cascode.
"""

from __future__ import annotations

from repro.spice.devices.mosfet import MosModel

_COMMON = dict(
    tox=4.1e-9,
    cgso=2.0e-10,
    cgdo=2.0e-10,
    cgbo=1.0e-10,
    cj=2.0e-4,
    cjsw=1.0e-10,
    ldiff=0.30e-6,
)


def generic_018() -> dict[str, MosModel]:
    """Return the generic-0.18 um model cards, keyed by model name."""
    cards = [
        MosModel(name="nch", mtype="n", vto=0.45, kp=280e-6, gamma=0.45,
                 phi=0.85, lambd=0.28, **_COMMON),
        MosModel(name="pch", mtype="p", vto=-0.45, kp=70e-6, gamma=0.40,
                 phi=0.85, lambd=0.26, **_COMMON),
        MosModel(name="nch_lv", mtype="n", vto=0.25, kp=280e-6, gamma=0.45,
                 phi=0.85, lambd=0.28, **_COMMON),
        MosModel(name="pch_lv", mtype="p", vto=-0.25, kp=70e-6, gamma=0.40,
                 phi=0.85, lambd=0.26, **_COMMON),
        # Long-channel variants with low output conductance, for current
        # mirrors and bias branches that need high ro.
        MosModel(name="nch_long", mtype="n", vto=0.45, kp=280e-6,
                 gamma=0.45, phi=0.85, lambd=0.04, **_COMMON),
        MosModel(name="pch_long", mtype="p", vto=-0.45, kp=70e-6,
                 gamma=0.40, phi=0.85, lambd=0.04, **_COMMON),
    ]
    return {card.name: card for card in cards}


#: Spice text of the same cards (exercises the parser; handy for users
#: writing textual netlists against this library).
GENERIC_018_CARDS = """
.model nch    nmos (vto=0.45  kp=280u gamma=0.45 phi=0.85 lambda=0.28
+ tox=4.1n cgso=0.2n cgdo=0.2n cgbo=0.1n cj=0.2m cjsw=0.1n ldiff=0.3u)
.model pch    pmos (vto=-0.45 kp=70u  gamma=0.40 phi=0.85 lambda=0.26
+ tox=4.1n cgso=0.2n cgdo=0.2n cgbo=0.1n cj=0.2m cjsw=0.1n ldiff=0.3u)
.model nch_lv nmos (vto=0.25  kp=280u gamma=0.45 phi=0.85 lambda=0.28
+ tox=4.1n cgso=0.2n cgdo=0.2n cgbo=0.1n cj=0.2m cjsw=0.1n ldiff=0.3u)
.model pch_lv pmos (vto=-0.25 kp=70u  gamma=0.40 phi=0.85 lambda=0.26
+ tox=4.1n cgso=0.2n cgdo=0.2n cgbo=0.1n cj=0.2m cjsw=0.1n ldiff=0.3u)
.model nch_long nmos (vto=0.45 kp=280u gamma=0.45 phi=0.85 lambda=0.04
+ tox=4.1n cgso=0.2n cgdo=0.2n cgbo=0.1n cj=0.2m cjsw=0.1n ldiff=0.3u)
.model pch_long pmos (vto=-0.45 kp=70u gamma=0.40 phi=0.85 lambda=0.04
+ tox=4.1n cgso=0.2n cgdo=0.2n cgbo=0.1n cj=0.2m cjsw=0.1n ldiff=0.3u)
"""
