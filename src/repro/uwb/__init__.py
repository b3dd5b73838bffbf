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

from repro.uwb.config import UwbConfig
from repro.uwb.pulse import (
    fcc_indoor_mask_dbm_per_mhz,
    gaussian_derivative,
    pulse_energy,
    pulse_psd,
    sampled_pulse,
)
from repro.uwb.modulation import Packet, ppm_waveform, random_bits
from repro.uwb.channel import AwgnChannel, Cm1Channel, ChannelRealization
from repro.uwb.integrator import (
    CircuitSurrogateIntegrator,
    IdealIntegrator,
    TwoPoleIntegrator,
    WindowIntegrator,
)
from repro.uwb.adc import Adc
from repro.uwb.frontend import Vga
from repro.uwb.agc import Agc, TwoStageAgc
from repro.uwb.receiver import EnergyDetectionReceiver, ReceiverResult
from repro.uwb.fastsim import (
    AdaptiveStopping,
    BerResult,
    wilson_interval,
)
from repro.uwb.ranging import RangingResult, TwoWayRanging

__all__ = [
    "AdaptiveStopping",
    "Adc",
    "Agc",
    "AwgnChannel",
    "BerResult",
    "ChannelRealization",
    "CircuitSurrogateIntegrator",
    "Cm1Channel",
    "EnergyDetectionReceiver",
    "IdealIntegrator",
    "Packet",
    "RangingResult",
    "ReceiverResult",
    "TwoPoleIntegrator",
    "TwoStageAgc",
    "TwoWayRanging",
    "UwbConfig",
    "Vga",
    "WindowIntegrator",
    "fcc_indoor_mask_dbm_per_mhz",
    "gaussian_derivative",
    "ppm_waveform",
    "pulse_energy",
    "pulse_psd",
    "random_bits",
    "sampled_pulse",
    "wilson_interval",
]
