"""UWB energy-detection transceiver substrate.

Everything the paper's case study needs, built from scratch:

* impulse-radio pulses (:mod:`repro.uwb.pulse`) and 2-PPM packets
  (:mod:`repro.uwb.modulation`),
* the IEEE 802.15.4a CM1 channel (:mod:`repro.uwb.channel`),
* behavioral front end with AGC (:mod:`repro.uwb.frontend`,
  :mod:`repro.uwb.agc`),
* the integrator model family across methodology phases
  (:mod:`repro.uwb.integrator`),
* ADC, synchronizer (NE/PS), demodulator,
* a sampled-waveform receiver (:mod:`repro.uwb.receiver`) and a
  vectorized Monte-Carlo BER engine (:mod:`repro.uwb.fastsim`) - the
  "Matlab golden model" of Phase I, and the exact ideal-integrator
  BER it is judged against (:mod:`repro.uwb.theory`),
* a mixed-signal receiver built on the AMS kernel
  (:mod:`repro.uwb.system`) - the Phase II-IV testbench,
* two-way ranging (:mod:`repro.uwb.ranging`).
"""

# perfbench/workloads.py imports this name through the package; it
# leaves with ROADMAP item 5.
from repro.uwb.config import UwbConfig  # noqa: F401
