"""ResultStore: content addressing, persistence, robustness."""

import json

import numpy as np
import pytest

from repro.campaign.store import ResultStore, default_salt
from repro.core.scenario import Scenario, SweepResult, _execute
from repro.uwb.modulation import random_bits


def bits_scenario(n=8, seed=5, name="bits"):
    return Scenario(name=name, fn=random_bits, seed=seed,
                    rng_param="rng", params={"n": n})


class TestKeys:
    def test_stable_across_instances(self, tmp_path):
        a = ResultStore(tmp_path, salt="s")
        b = ResultStore(tmp_path, salt="s")
        assert a.scenario_key(bits_scenario()) == \
            b.scenario_key(bits_scenario())

    def test_name_does_not_matter_content_does(self, tmp_path):
        store = ResultStore(tmp_path, salt="s")
        base = store.scenario_key(bits_scenario(name="x"))
        assert base == store.scenario_key(bits_scenario(name="y"))
        assert base != store.scenario_key(bits_scenario(n=9))
        assert base != store.scenario_key(bits_scenario(seed=6))

    def test_salt_partitions(self, tmp_path):
        assert ResultStore(tmp_path, salt="a").scenario_key(
            bits_scenario()) != ResultStore(
            tmp_path, salt="b").scenario_key(bits_scenario())

    def test_default_salt_tracks_version(self, tmp_path):
        from repro import __version__

        assert __version__ in ResultStore(tmp_path).salt
        assert ResultStore(tmp_path).salt == default_salt()

    def test_uncacheable_scenarios(self, tmp_path):
        store = ResultStore(tmp_path, salt="s")
        # entropy injection without a seed
        assert store.scenario_key(Scenario(
            name="u", fn=random_bits, rng_param="rng",
            params={"n": 4})) is None
        # lambda: no import path
        assert store.scenario_key(Scenario(
            name="l", fn=lambda: 1)) is None
        # explicit opt-out
        assert store.scenario_key(Scenario(
            name="t", fn=random_bits, seed=1, rng_param="rng",
            params={"n": 4}, cache=False)) is None

    def test_content_address_is_pinned(self, tmp_path):
        """A literal key: layout changes must never move addresses
        (every existing cache would silently miss)."""
        assert ResultStore(tmp_path, salt="s").scenario_key(
            bits_scenario()) == ("a8ea8893a606b9101010169479dd4213"
                                 "6de2590f9a2bc39cf725c2f940dc7d81")

    def test_deterministic_seedless_scenario_is_cacheable(self, tmp_path):
        """seed=None without rng/seed injection is deterministic on
        paper (the Table-1 convention) and caches."""
        from repro.uwb.channel.ieee802154a import path_loss_db

        store = ResultStore(tmp_path, salt="s")
        sc = Scenario(name="d", fn=path_loss_db,
                      params={"distance": 2.0})
        assert store.scenario_key(sc) is not None


class TestRoundTrip:
    def test_put_get(self, tmp_path):
        store = ResultStore(tmp_path, salt="s")
        sc = bits_scenario()
        result = _execute(sc)
        key = store.put(sc, result)
        assert key is not None
        back = store.get(bits_scenario())
        assert back is not None and back.cached
        assert np.array_equal(back.value, result.value)
        assert back.wall_time == result.wall_time
        assert store.hits == 1

    def test_get_miss_counts(self, tmp_path):
        store = ResultStore(tmp_path, salt="s")
        assert store.get(bits_scenario()) is None
        assert store.misses == 1 and store.hits == 0

    def test_npz_payload_written_for_arrays(self, tmp_path):
        store = ResultStore(tmp_path, salt="s")
        sc = bits_scenario()
        key = store.put(sc, _execute(sc))
        assert (store.objects_dir / f"{key}.json").exists()
        assert (store.objects_dir / f"{key}.npz").exists()
        # the object pair is the whole store: no journal, no lock file
        assert [p.name for p in tmp_path.iterdir()] == ["objects"]

    def test_scalar_value_has_no_npz(self, tmp_path):
        from repro.uwb.channel.ieee802154a import path_loss_db

        store = ResultStore(tmp_path, salt="s")
        sc = Scenario(name="s", fn=path_loss_db,
                      params={"distance": 1.0})
        key = store.put(sc, _execute(sc))
        assert not (store.objects_dir / f"{key}.npz").exists()
        back = store.get(sc)
        assert back.value == pytest.approx(43.9)

    def test_entries_and_clear(self, tmp_path):
        store = ResultStore(tmp_path, salt="s")
        for n in (4, 8):
            sc = bits_scenario(n=n)
            store.put(sc, _execute(sc))
        entries = store.entries()
        assert len(entries) == 2
        assert all(e.has_arrays for e in entries)
        # clear() accounts for every byte it frees: the object
        # records and the npz payloads.
        expected = sum(e.size_bytes for e in entries)
        removed, freed = store.clear()
        assert removed == 2
        assert freed == expected
        assert store.entries() == []
        assert store.clear() == (0, 0)

    def test_clear_removes_orphan_payloads(self, tmp_path):
        """A crash between the payload and record writes leaves a
        payload with no record; clear() deletes and counts it too."""
        store = ResultStore(tmp_path, salt="s")
        sc = bits_scenario()
        key = store.put(sc, _execute(sc))
        orphan = store.objects_dir / ("f" * 64 + ".npz")
        orphan.write_bytes((store.objects_dir / f"{key}.npz").read_bytes())
        expected = sum(e.size_bytes for e in store.entries()) \
            + orphan.stat().st_size
        assert store.clear() == (1, expected)
        assert list(store.objects_dir.iterdir()) == []

    def test_entries_writes_nothing(self, tmp_path):
        """Listing the store (``repro cache ls``) is a pure read: the
        file set and every mtime under the root stay unchanged."""
        store = ResultStore(tmp_path, salt="s")
        for n in (4, 8):
            sc = bits_scenario(n=n)
            store.put(sc, _execute(sc))

        def snapshot():
            return {p: p.stat().st_mtime_ns
                    for p in sorted(tmp_path.rglob("*"))}

        before = snapshot()
        assert len(store.entries()) == 2
        assert snapshot() == before


class TestRobustness:
    def test_corrupted_object_treated_as_miss(self, tmp_path):
        store = ResultStore(tmp_path, salt="s")
        sc = bits_scenario()
        key = store.put(sc, _execute(sc))
        (store.objects_dir / f"{key}.json").write_text("{ not json")
        assert store.get(sc) is None

    def test_missing_payload_treated_as_miss(self, tmp_path):
        store = ResultStore(tmp_path, salt="s")
        sc = bits_scenario()
        key = store.put(sc, _execute(sc))
        (store.objects_dir / f"{key}.npz").unlink()
        assert store.get(sc) is None

    def test_stale_import_path_treated_as_miss(self, tmp_path):
        """Entries written against since-renamed code must fall back
        to re-execution, not crash the campaign."""
        store = ResultStore(tmp_path, salt="s")
        sc = bits_scenario()
        key = store.put(sc, _execute(sc))
        path = store.objects_dir / f"{key}.json"
        record = json.loads(path.read_text())
        record["value"] = {"__dataclass__": "repro.gone:Missing",
                           "fields": {}}
        path.write_text(json.dumps(record))
        assert store.get(sc) is None

    def test_reexecution_repairs_entry(self, tmp_path):
        store = ResultStore(tmp_path, salt="s")
        sc = bits_scenario()
        key = store.put(sc, _execute(sc))
        (store.objects_dir / f"{key}.json").write_text("garbage")
        store.put(sc, _execute(sc))
        assert store.get(sc) is not None

    def test_object_file_is_readable_json(self, tmp_path):
        store = ResultStore(tmp_path, salt="s")
        sc = bits_scenario()
        key = store.put(sc, _execute(sc))
        record = json.loads((store.objects_dir / f"{key}.json").read_text())
        assert record["scenario"]["fn"] == \
            "repro.uwb.modulation:random_bits"
        assert record["salt"] == "s"

    def test_reports(self, tmp_path):
        store = ResultStore(tmp_path, salt="s")
        store.save_report("fig6", "hello")
        assert list(store.load_reports()) == [("fig6", "hello")]
        # clear() keeps rendered reports
        store.clear()
        assert list(store.load_reports()) == [("fig6", "hello")]
