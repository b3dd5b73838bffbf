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
}

#: recorded sorted keys per harness.
PINNED = {
    "fig6": [
        "5704b94dbabbc9148786fae2c30b7c7f3b353e78deaca7892016c4d32d4cb68d",
    ],
    "mui": [
        "b00360bc61fd6516791953df122431814451d1e862c9f5c9b8497b6f7391d96b",
        "f36d3333dab14d1b2e8a220c78406cee43d7f0331482fdc14fa18f94080f449c",
        "f6d21b58182d833e076102f1876e341d4e9743fdd05cc2467d3e44b6f0ef5cf1",
    ],
    "ablation": [
        "65e3a47a781cecbca1fe1a1f8de4f580be0a5a3bfbc22680b11a9947cac05090",
        "99209faaeef73c2885685eb20e0b163da3efa4a729e83a8fc975a1658b481d41",
    ],
    "table2": [
        "c494de227a62a896c905bf80f0851b0b7909801a069cd7aced7bd18d4fee3ba0",
        "cbc4e6670a60e552a9c8bfb8a940076dffbda01f834d1a01b344907c19e507f5",
    ],
    "table1": [
        "0b97d871b982f1c19c7abd43c84cd148055b4961fbe39b21b5ecf2c76f9eacff",
        "b92fc1df5ec8c788500771b9438e8a3057fb90977931dc29642a2200049f515d",
        "c7b12d8b36295b3d40a1b8aec0280980627a7850b2fb60a5a440aa4dd79bf530",
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
