"""Scale-out operations of the result store - concurrent writers,
merge and GC - plus the ``repro.campaign.shard`` import alias."""

import json
import multiprocessing

import numpy as np
import pytest

from repro.campaign.runner import CampaignRunner
from repro.campaign.shard import ShardedResultStore
from repro.campaign.store import ResultStore
from repro.core.scenario import Scenario, _execute
from repro.uwb.modulation import random_bits


def bits_scenario(n=8, seed=5, name="bits"):
    return Scenario(name=name, fn=random_bits, seed=seed,
                    rng_param="rng", params={"n": n})


def fill(store, ns):
    """Execute-and-put one scenario per n; returns their keys."""
    keys = []
    for n in ns:
        sc = bits_scenario(n=n, name=f"bits{n}")
        keys.append(store.put(sc, _execute(sc)))
    return keys


def rerun(store, ns):
    """Re-run the fill() scenarios as a campaign over *store*."""
    runner = CampaignRunner(store=store)
    for n in ns:
        runner.add(bits_scenario(n=n, name=f"bits{n}"))
    return runner.run()


class TestContractParity:
    """The ``ShardedResultStore`` alias, kept for existing imports, is
    the one store and honors its whole contract."""

    def test_alias_is_the_result_store(self):
        assert ShardedResultStore is ResultStore

    def test_put_get_round_trip(self, tmp_path):
        store = ShardedResultStore(tmp_path, salt="s")
        sc = bits_scenario()
        result = _execute(sc)
        key = store.put(sc, result)
        assert key is not None
        back = store.get(bits_scenario())
        assert back is not None and back.cached
        assert np.array_equal(back.value, result.value)
        assert store.hits == 1

    def test_entries_and_clear(self, tmp_path):
        store = ShardedResultStore(tmp_path, salt="s")
        fill(store, (4, 8, 16))
        entries = store.entries()
        assert len(entries) == 3
        assert {e.name for e in entries} == {"bits4", "bits8", "bits16"}
        removed, freed = store.clear()
        assert removed == 3 and freed > 0
        assert store.entries() == []

    def test_runner_accepts_sharded_store(self, tmp_path):
        store = ShardedResultStore(tmp_path, salt="s")
        first = rerun(store, (4, 8))
        assert (first.executed, first.cached) == (2, 0)
        second = rerun(store, (4, 8))
        assert (second.executed, second.cached) == (0, 2)

    def test_truncated_object_is_a_miss(self, tmp_path):
        store = ShardedResultStore(tmp_path, salt="s")
        sc = bits_scenario()
        key = store.put(sc, _execute(sc))
        path = store._object_path(key)
        path.write_text(path.read_text()[:20])  # torn write
        assert store.get(sc) is None

    def test_truncated_payload_is_a_miss(self, tmp_path):
        store = ShardedResultStore(tmp_path, salt="s")
        sc = bits_scenario()
        key = store.put(sc, _execute(sc))
        payload = store._payload_path(key)
        payload.write_bytes(payload.read_bytes()[:8])
        assert store.get(sc) is None


def put_batch(root, salt, ns, barrier):
    """Concurrent-writer worker: waits on the barrier, then puts."""
    store = ResultStore(root, salt=salt)
    barrier.wait(timeout=10.0)
    for n in ns:
        sc = bits_scenario(n=n, name=f"bits{n}")
        store.put(sc, _execute(sc))


class TestConcurrency:
    N_WORKERS = 4

    def _run_workers(self, root, per_worker_ns):
        barrier = multiprocessing.Barrier(self.N_WORKERS)
        procs = [multiprocessing.Process(
            target=put_batch, args=(root, "s", ns, barrier))
            for ns in per_worker_ns]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=60.0)
        assert all(p.exitcode == 0 for p in procs)

    def test_concurrent_puts_distinct_keys(self, tmp_path):
        """Four processes, disjoint keys: no lost or torn entries."""
        per_worker = [range(10 + 10 * w, 20 + 10 * w)
                      for w in range(self.N_WORKERS)]
        self._run_workers(tmp_path, per_worker)
        store = ResultStore(tmp_path, salt="s")
        assert len(store.entries()) == 10 * self.N_WORKERS
        # every entry is readable
        for w in range(self.N_WORKERS):
            for n in per_worker[w]:
                assert store.get(bits_scenario(n=n)) is not None

    def test_concurrent_puts_same_keys(self, tmp_path):
        """Four processes hammering the SAME keys: last write wins
        and every entry stays readable."""
        per_worker = [range(4, 12)] * self.N_WORKERS
        self._run_workers(tmp_path, per_worker)
        store = ResultStore(tmp_path, salt="s")
        assert len(store.entries()) == 8
        for n in range(4, 12):
            back = store.get(bits_scenario(n=n))
            assert back is not None
            assert len(back.value) == n


class TestMerge:
    def test_merge_unions_disjoint_stores(self, tmp_path):
        a = ResultStore(tmp_path / "a", salt="s")
        b = ResultStore(tmp_path / "b", salt="s")
        fill(a, (4, 8))
        fill(b, (16, 32))
        assert a.merge(b) == 2
        assert len(a.entries()) == 4
        for n in (4, 8, 16, 32):
            assert a.get(bits_scenario(n=n)) is not None

    def test_merged_store_reruns_zero(self, tmp_path):
        """The acceptance contract: merging two independently-filled
        stores yields a store whose re-run executes nothing."""
        a = ResultStore(tmp_path / "a", salt="s")
        b = ResultStore(tmp_path / "b", salt="s")
        fill(a, (4, 8))
        fill(b, (16, 32))
        a.merge(b)
        report = rerun(a, (4, 8, 16, 32))
        assert (report.executed, report.cached) == (0, 4)

    def test_merge_is_idempotent(self, tmp_path):
        a = ResultStore(tmp_path / "a", salt="s")
        b = ResultStore(tmp_path / "b", salt="s")
        fill(b, (4, 8))
        assert a.merge(b) == 2
        assert a.merge(b) == 0  # second merge adopts nothing
        assert len(a.entries()) == 2

    def test_merge_newest_created_wins(self, tmp_path):
        a = ResultStore(tmp_path / "a", salt="s")
        b = ResultStore(tmp_path / "b", salt="s")
        (key,) = fill(a, (4,))
        fill(b, (4,))

        def set_created(store, stamp):
            path = store._object_path(key)
            record = json.loads(path.read_text())
            record["created"] = stamp
            path.write_text(json.dumps(record))

        set_created(a, 100.0)
        set_created(b, 200.0)
        assert a.merge(b) == 1  # b is newer -> adopted
        assert json.loads(
            a._object_path(key).read_text())["created"] == 200.0
        set_created(b, 50.0)
        assert a.merge(b) == 0  # b is older -> kept ours

    def test_merge_from_classic_store(self, tmp_path):
        """A cache written before the index journal was dropped still
        carries ``index.jsonl``; merge ignores it and imports the
        objects."""
        classic = ResultStore(tmp_path / "classic", salt="s")
        fill(classic, (4, 8))
        (classic.root / "index.jsonl").write_text(
            '{"format": "repro.index/2", "salt": "s"}\n{ torn')
        merged = ResultStore(tmp_path / "merged", salt="s")
        assert merged.merge(classic) == 2
        report = rerun(merged, (4, 8))
        assert (report.executed, report.cached) == (0, 2)

    def test_merge_skips_torn_source_records(self, tmp_path):
        a = ResultStore(tmp_path / "a", salt="s")
        b = ResultStore(tmp_path / "b", salt="s")
        keys = fill(b, (4, 8))
        b._object_path(keys[0]).write_text("{ torn")
        b._payload_path(keys[1]).unlink()  # record without its arrays
        assert a.merge(b) == 0
        assert a.entries() == []


class TestGc:
    def _aged_store(self, root, stamps):
        """A store whose entries carry pinned created stamps."""
        store = ResultStore(root, salt="s")
        keys = fill(store, sorted(stamps))
        for n, key in zip(sorted(stamps), keys):
            path = store._object_path(key)
            record = json.loads(path.read_text())
            record["created"] = stamps[n]
            path.write_text(json.dumps(record))
        return store, keys

    def test_gc_noop_without_limits(self, tmp_path):
        store = ResultStore(tmp_path, salt="s")
        fill(store, (4, 8))
        assert store.gc() == (0, 0)
        assert len(store.entries()) == 2

    @pytest.mark.parametrize("limit", ["max_bytes", "max_age"])
    def test_gc_rejects_negative_limits(self, tmp_path, limit):
        store = ResultStore(tmp_path, salt="s")
        fill(store, (4, 8))
        with pytest.raises(ValueError, match=limit):
            store.gc(**{limit: -1})
        assert len(store.entries()) == 2

    def test_gc_max_age_evicts_old_entries(self, tmp_path):
        store, _ = self._aged_store(
            tmp_path, {4: 100.0, 8: 200.0, 16: 300.0})
        evicted, freed = store.gc(max_age=150.0, now=400.0)
        assert evicted == 2 and freed > 0
        remaining = store.entries()
        assert [e.name for e in remaining] == ["bits16"]

    def test_gc_max_bytes_evicts_oldest_first(self, tmp_path):
        store, _ = self._aged_store(
            tmp_path, {4: 100.0, 8: 200.0, 16: 300.0})
        entries = {e.name: e for e in store.entries()}
        budget = entries["bits8"].size_bytes + entries["bits16"].size_bytes
        evicted, freed = store.gc(max_bytes=budget)
        assert evicted == 1
        assert freed == entries["bits4"].size_bytes
        assert {e.name for e in store.entries()} == {"bits8", "bits16"}
        total = sum(e.size_bytes for e in store.entries())
        assert total <= budget

    def test_gc_to_zero_bytes_empties_the_store(self, tmp_path):
        store = ResultStore(tmp_path, salt="s")
        fill(store, (4, 8))
        evicted, _freed = store.gc(max_bytes=0)
        assert evicted == 2
        assert store.entries() == []

    def test_evicted_entry_reads_as_clean_miss(self, tmp_path):
        """A reader racing GC sees a miss, never a torn object: the
        record is deleted before the payload."""
        store = ResultStore(tmp_path, salt="s")
        sc = bits_scenario()
        store.put(sc, _execute(sc))
        store.gc(max_bytes=0)
        assert store.get(sc) is None  # miss, no exception
        # re-put repairs the entry
        store.put(sc, _execute(sc))
        assert store.get(sc) is not None

    def test_gc_concurrent_with_readers(self, tmp_path):
        """GC in one thread, reads hammering in another: every get()
        returns a result or a miss - never raises, and an entry is
        only ever missing because GC evicted it."""
        import threading

        store = ResultStore(tmp_path, salt="s")
        fill(store, range(4, 24))
        reader = ResultStore(tmp_path, salt="s")
        failures = []

        def read_loop():
            for _ in range(5):
                for n in range(4, 24):
                    try:
                        reader.get(bits_scenario(n=n))
                    except Exception as exc:  # pragma: no cover
                        failures.append(exc)

        thread = threading.Thread(target=read_loop)
        thread.start()
        store.gc(max_bytes=0)
        thread.join(timeout=30.0)
        assert failures == []
