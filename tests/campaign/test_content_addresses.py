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
from repro.experiments.ablations import (
    run_agc_ablation,
    run_noise_shaping_ablation,
)
from repro.experiments.fig5_transient import run_fig5_drive_sweep
from repro.experiments.fig6_ber import run_fig6
from repro.experiments.mui_network import run_mui
from repro.experiments.table1_cpu import run_table1
from repro.experiments.table2_twr import run_table2

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
        "ebc1aaffa4054597b9e9368fb0a24af80427e373d91cf44ef9d8b908e5de22f4",
    ],
    "mui": [
        "4ab596a458f44fa089e856a8f1ea785b82ac55ef70a314f2a189929e1b3aefae",
        "6c67d5c8074d950f7ccdd86262a56192e5c297e35f77691c1ff9229829f8350d",
        "efb4c869afd9ea3109a5bb5ec29c8f87cd7fd34da8ac2527899e0a85dcf87338",
    ],
    "ablation": [
        "f396e19126850a42ff0ab6b29c3467f50fca006931aed88e180c317f206acbe0",
    ],
    "table2": [
        "1db70bbd1834708500de129fb9c3429200ccb950394c86343619178bf8180688",
        "64548735c3ae1c5139db35f17fd7b36a07e99ffa64c0bead14c926cf7f39f443",
    ],
    "table1": [
        "bd7633dca25cc66bedd1a47157450d838eb9275ac5c545ac6d5a778f5f4ae9cc",
        "c47d0cb33da4a1104e96fec51e1e776d1e701b9b0f62956672a4ea29d34090db",
        "e5784bf58155d15afeac260431775b492e57b136ca42ad93e0a9b91baefaf65c",
    ],
    "fig5": [
        "3a6048bfdd95ff4f84cd4bd56fd09dba2a78e6cdc0661bd38e01be8c5d5bc486",
    ],
    "agc": [
        "5c5504df1232c4b8d0d8a8f10a16a5bc519b8212c8280b164e22ced4bcb5c908",
        "64548735c3ae1c5139db35f17fd7b36a07e99ffa64c0bead14c926cf7f39f443",
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
