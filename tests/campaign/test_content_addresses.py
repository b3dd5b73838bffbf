"""Pinned content addresses of the experiment campaigns.

A result store serves a cached result whenever a scenario's key
(``module:qualname`` of its function, its keyword arguments, its seed
and the store salt) matches.  Renaming an op, moving it to another
module or changing the keyword arguments a harness passes therefore
silently orphans every cached result.  This test runs tiny versions of
the cached harnesses against a store with a fixed salt and compares
the sorted keys with the recorded hex digests.

Re-record (only after a deliberate key change, noted in CHANGES.md)::

    PYTHONPATH=src python tests/campaign/test_content_addresses.py
"""

from __future__ import annotations

import tempfile

import pytest

from repro.campaign.store import ResultStore
from repro.experiments import (
    run_agc_ablation,
    run_fig5_drive_sweep,
    run_fig6,
    run_mui,
    run_noise_shaping_ablation,
    run_table1,
    run_table2,
)

#: harness -> tiny invocation (budgets are part of the keys).
CAMPAIGNS = {
    "fig6": lambda store: run_fig6(ebn0_grid=(0.0,), store=store),
    "mui": lambda store: run_mui(
        ebn0_grid=(0.0,), counts=(0, 1), sir_grid=(0.0,),
        near_far_distances=(3.0,),
        budget=dict(target_errors=5, max_bits=400, min_bits=200),
        chunk_bits=100, store=store),
    "ablation": lambda store: run_noise_shaping_ablation(
        ebn0_db=0.0, fp2_grid=(3e9,), store=store),
    "table2": lambda store: run_table2(iterations=1, store=store),
    "table1": lambda store: run_table1(
        simulated_time=32e-9, measure_reference=False, store=store),
    "fig5": lambda store: run_fig5_drive_sweep(
        drives=(0.02,), dt=0.4e-9, store=store),
    "agc": lambda store: run_agc_ablation(iterations=1, store=store),
}

#: recorded sorted keys per harness.
PINNED = {
    "fig6": [
        "a83fbcd396fa8966462f3f458a3452a7da3e14bb78149228d12fb2b057674ecc",
    ],
    "mui": [
        "3507e2c7fc196cd22818e4e6ab61dd60ffe139fe8c45d5aacccd24ead78623d0",
        "3fd4dc2319e12866f6381436ab2d155c836f3a41f15377b7b4d8feb28355345c",
        "c2e4500d3a307a6c4983394356fe90ef4e3a713c9f198ec53bcf641035b4dfb4",
    ],
    "ablation": [
        "3584ce3e2671e3201a470a26491e0ac05a5856d5e75d54f1b67d23e49552b7bf",
    ],
    "table2": [
        "013d8c45e2f90c0a005aa5d601798d88657ec5483a687a2569b4500cdde0f360",
        "834c01b0dab63fe886904e78f054a577c51b9a12edbe4f76f40328cd8732b3dd",
    ],
    "table1": [
        "0d3e0ed36d2f5364850b823475be717faf61ac4d236397d15023759de9d5ddc0",
        "28abaafc8d3ec2298850dbf4324751d5f0dfca86c028d7c7a80a58b47041e38d",
        "2ada149d0508aac3d8509e1eed360e45c062bec794a11cc5993121324b1ef9bd",
    ],
    "fig5": [
        "689e5c45a63f09a93b0a03ee8cc4ff43ae7bd60ece77b3177f29222ccb6f35f6",
    ],
    "agc": [
        "013d8c45e2f90c0a005aa5d601798d88657ec5483a687a2569b4500cdde0f360",
        "92f778f63b0768ae8d7d1e453de8e14efae9716411380068fd8abf2440e438a8",
    ],
}


def campaign_keys(name: str) -> list[str]:
    with tempfile.TemporaryDirectory() as tmp:
        store = ResultStore(tmp, salt="pin")
        CAMPAIGNS[name](store)
        return sorted(entry.key for entry in store.entries())


@pytest.mark.parametrize("name", sorted(PINNED))
def test_campaign_keys_are_pinned(name):
    assert campaign_keys(name) == PINNED[name]


if __name__ == "__main__":
    for name in CAMPAIGNS:
        print(f'    "{name}": [')
        for key in campaign_keys(name):
            print(f'        "{key}",')
        print("    ],")
