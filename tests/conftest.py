"""Shared fixtures: fast configurations and session-cached circuit data."""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuits.sizing import default_design
from repro.core.characterize import characterize_integrator
from repro.link.pipeline import (
    AnalogFrontEndStage,
    ChannelStage,
    CombineStage,
    SignalPipeline,
    TxStage,
)
from repro.uwb.config import UwbConfig


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def fast_config() -> UwbConfig:
    """A light link configuration for unit tests."""
    return UwbConfig(fs=8e9, symbol_period=16e-9, pulse_tau=0.225e-9,
                     pulse_order=5, integration_window=2e-9,
                     preamble_symbols=8, payload_bits=16)


@pytest.fixture
def link_front():
    """Builder of the golden-model BER front, Tx -> Channel -> Combine
    -> AnalogFrontEnd: ``link_front(config, bpf, scale=..., channel=...,
    interferers=...)`` returns the :class:`SignalPipeline` that
    ``run_ber_sweep`` grades."""

    def build(config, bpf, *, scale=1.0, channel=None, interferers=()):
        return SignalPipeline(stages=(
            TxStage(config),
            ChannelStage(config, channel),
            CombineStage(config, interferers),
            AnalogFrontEndStage(config, bpf, scale)))

    return build


@pytest.fixture(scope="session")
def id_design():
    return default_design()


@pytest.fixture(scope="session")
def id_characterization(id_design):
    """Cached (fit, freqs, mag_db) of the default I&D circuit."""
    return characterize_integrator(id_design)
