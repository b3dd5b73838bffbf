"""Content-addressed result store: the campaign layer's persistence.

Every :class:`~repro.core.scenario.Scenario` has a *content address* -
a SHA-256 over its canonical encoding::

    key = sha256({fn qualname, params, seed, rng convention, salt})

where *salt* defaults to ``repro-<package version>`` so a code release
invalidates old results wholesale (pass an explicit salt to pin or
partition a campaign).  Results are stored one file pair per key:

.. code-block:: text

    <cache root>/
        objects/<key>.json      scenario echo + encoded value + timings
        objects/<key>.npz       NumPy array payloads (only if any)
        reports/<name>.txt      rendered experiment reports (CLI)

The object files are the whole store: listing, merge and GC scan
them, and no other file is written on a checkpoint.  All object writes
are atomic renames, so a campaign interrupted mid-write never corrupts
previously stored results, and any number of writer processes (e.g.
several ``repro run`` invocations sharing one cache) can checkpoint
concurrently without locks - identical keys produce identical bytes
and the last rename wins.

Scenarios are only cacheable when they are *deterministic on paper*:
a scenario that injects entropy (``rng_param`` with ``seed=None``) or
whose function/params cannot be encoded (lambdas) is silently treated
as uncacheable and simply always executes.

The cache root resolves, in order: explicit argument, the
``REPRO_CACHE_DIR`` environment variable, ``~/.cache/repro``.
"""

from __future__ import annotations

import os
import shutil
import time
from pathlib import Path
from typing import Iterator

from repro import __version__
from repro.campaign.objects import (
    OBJECT_FORMAT,
    StoreEntry,
    atomic_write,
    delete_object,
    encode_record,
    load_result,
    read_entry,
    read_record,
    write_object,
)
from repro.core.scenario import Scenario, SweepResult
from repro.core.serialization import (
    UnserializableError,
    callable_spec,
    stable_hash,
)
from repro.obs import metrics as _metrics

# Process-wide cache traffic, aggregated across every store instance
# (the per-instance hits/misses attributes below stay authoritative
# for the CLI's executed=N accounting).
_HITS = _metrics.REGISTRY.counter("campaign.store.hits")
_MISSES = _metrics.REGISTRY.counter("campaign.store.misses")
_PUTS = _metrics.REGISTRY.counter("campaign.store.puts")
_ADOPTED = _metrics.REGISTRY.counter("campaign.store.merge_adopted")
_EVICTED = _metrics.REGISTRY.counter("campaign.store.gc_evicted")

__all__ = ["OBJECT_FORMAT", "ResultStore", "StoreEntry",
           "default_cache_dir", "default_salt"]

def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` or ``~/.cache/repro``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env).expanduser()
    return Path.home() / ".cache" / "repro"


def default_salt() -> str:
    """Code-version salt baked into every content address."""
    return f"repro-{__version__}"


class ResultStore:
    """Content-addressed store of :class:`SweepResult` values.

    Args:
        root: cache directory (created lazily on first write); defaults
            to :func:`default_cache_dir`.
        salt: hash-key salt; defaults to :func:`default_salt`.

    Attributes:
        hits / misses: lookup counters of this store instance -
            ``misses`` equals the number of scenarios that had to
            execute, which is what the CLI's ``executed=N`` line and
            the CI cache-hit smoke job report.
    """

    def __init__(self, root: str | os.PathLike | None = None, *,
                 salt: str | None = None):
        self.root = Path(root).expanduser() if root is not None \
            else default_cache_dir()
        self.salt = salt if salt is not None else default_salt()
        self.hits = 0
        self.misses = 0

    # -- layout -------------------------------------------------------

    @property
    def objects_dir(self) -> Path:
        return self.root / "objects"

    @property
    def reports_dir(self) -> Path:
        return self.root / "reports"

    def _object_path(self, key: str) -> Path:
        return self.objects_dir / f"{key}.json"

    def _payload_path(self, key: str) -> Path:
        return self.objects_dir / f"{key}.npz"

    def _object_files(self) -> Iterator[Path]:
        """Every object record file, in deterministic order."""
        if self.objects_dir.is_dir():
            yield from sorted(self.objects_dir.glob("*.json"))

    # -- keys ---------------------------------------------------------

    def scenario_key(self, scenario: Scenario) -> str | None:
        """Content address of *scenario*, or ``None`` if uncacheable.

        Uncacheable means opted out (``Scenario.cache=False``),
        nondeterministic (entropy injection with no seed) or
        unencodable (lambda function / exotic params).
        """
        if not scenario.cache:
            return None
        if scenario.seed is None and scenario.rng_param:
            return None
        try:
            payload = {
                "fn": callable_spec(scenario.fn),
                "params": dict(scenario.params),
                "seed": scenario.seed,
                "rng_param": scenario.rng_param,
                # Retired Scenario field, kept so stored keys still hit.
                "seed_param": None,
                "salt": self.salt,
            }
            return stable_hash(payload)
        except UnserializableError:
            return None

    # -- read path ----------------------------------------------------

    def get(self, scenario: Scenario,
            key: str | None = None) -> SweepResult | None:
        """Stored result of *scenario*, or ``None`` (counted as a
        miss - i.e. the scenario will have to execute)."""
        if key is None:
            key = self.scenario_key(scenario)
        result = None
        if key is not None:
            result = load_result(self._object_path(key),
                                 self._payload_path(key), scenario)
        if result is None:
            self.misses += 1
            _MISSES.inc()
        else:
            self.hits += 1
            _HITS.inc()
        return result

    # -- write path ---------------------------------------------------

    def put(self, scenario: Scenario, result: SweepResult,
            key: str | None = None) -> str | None:
        """Persist *result* under *scenario*'s content address.

        Returns the key, or ``None`` when the scenario (or its value)
        is uncacheable - the campaign then simply runs uncached.
        """
        if key is None:
            key = self.scenario_key(scenario)
        if key is None:
            return None
        try:
            record, arrays = encode_record(scenario, result, key, self.salt)
        except UnserializableError:
            return None
        write_object(self._object_path(key), self._payload_path(key),
                     record, arrays)
        _PUTS.inc()
        return key

    # -- maintenance --------------------------------------------------

    def entries(self) -> list[StoreEntry]:
        """All stored results, scanned from the object files (a pure
        read: listing a store writes nothing)."""
        out = []
        for path in self._object_files():
            entry = read_entry(path, self._payload_path(path.stem))
            if entry is not None:
                out.append(entry)
        return out

    def clear(self) -> tuple[int, int]:
        """Delete all stored results (reports are kept).

        Returns:
            ``(entries, bytes)`` - the number of results removed and
            the total bytes freed (object records and array payloads,
            including payloads whose record was never written).
        """
        removed = 0
        freed = 0
        for path in list(self._object_files()):
            n, b = delete_object(path, self._payload_path(path.stem))
            removed += n
            freed += b
        # A crash between the payload and record writes of
        # write_object leaves a payload with no record: garbage too.
        if self.objects_dir.is_dir():
            for path in list(self.objects_dir.glob("*.npz")):
                try:
                    size = path.stat().st_size
                    path.unlink()
                except OSError:
                    continue
                freed += size
        return removed, freed

    def merge(self, other: "ResultStore") -> int:
        """Union *other*'s objects into this store; returns the number
        of entries adopted.

        On a key collision the newest ``created`` stamp wins; merging
        the same store twice therefore adopts nothing the second time.
        Records that fail the format-marker check, or whose array
        payload is missing, are skipped - a corrupted source entry
        must not evict a good local one.
        """
        adopted = 0
        for src in other._object_files():
            key = src.stem
            record = read_record(src)
            if record is None:
                continue
            src_payload = src.with_suffix(".npz")
            if record.get("has_arrays") and not src_payload.exists():
                continue
            dst = self._object_path(key)
            ours = read_record(dst)
            if ours is not None and float(ours.get("created", 0.0)) >= \
                    float(record.get("created", 0.0)):
                continue
            dst.parent.mkdir(parents=True, exist_ok=True)
            # Payload first, record second: a reader that can see the
            # record must be able to see its payload.
            if record.get("has_arrays"):
                atomic_write(self._payload_path(key),
                             lambda tmp: shutil.copyfile(src_payload, tmp))
            atomic_write(dst, lambda tmp: shutil.copyfile(src, tmp))
            adopted += 1
        _ADOPTED.inc(adopted)
        return adopted

    def gc(self, *, max_bytes: int | None = None,
           max_age: float | None = None,
           now: float | None = None) -> tuple[int, int]:
        """Evict stored results by age and/or total size.

        Args:
            max_bytes: evict oldest-``created`` entries until the
                store's total object size is at most this.
            max_age: evict every entry whose ``created`` stamp is more
                than this many seconds before *now*.
            now: reference time (defaults to ``time.time()``; tests
                pin it).

        Returns:
            ``(entries, bytes)`` evicted/freed.  With neither limit
            given this is a no-op.  Each eviction deletes the record
            before the payload, so a concurrent reader observes either
            a complete object or a plain miss, never a torn one.

        Raises:
            ValueError: a negative limit (it would evict everything).
        """
        for flag, limit in (("max_bytes", max_bytes), ("max_age", max_age)):
            if limit is not None and not limit >= 0:
                raise ValueError(f"{flag} must be >= 0, got {limit!r}")
        if max_bytes is None and max_age is None:
            return 0, 0
        if now is None:
            now = time.time()
        entries = self.entries()
        victims: dict[str, StoreEntry] = {}
        if max_age is not None:
            for e in entries:
                if now - e.created > max_age:
                    victims[e.key] = e
        if max_bytes is not None:
            live = [e for e in entries if e.key not in victims]
            total = sum(e.size_bytes for e in live)
            # Oldest first: created is the store's LRU ordering (a put
            # refreshes it; reads do not, by design - re-deriving a
            # result is cheap exactly when it was cheap to compute).
            for e in sorted(live, key=lambda e: (e.created, e.key)):
                if total <= max_bytes:
                    break
                victims[e.key] = e
                total -= e.size_bytes
        evicted = 0
        freed = 0
        for e in victims.values():
            n, b = delete_object(self._object_path(e.key),
                                 self._payload_path(e.key))
            evicted += n
            freed += b
        _EVICTED.inc(evicted)
        return evicted, freed

    # -- rendered reports (CLI) ---------------------------------------

    def save_report(self, name: str, text: str) -> Path:
        self.reports_dir.mkdir(parents=True, exist_ok=True)
        path = self.reports_dir / f"{name}.txt"
        atomic_write(path, lambda p: p.write_text(text))
        return path

    def load_reports(self) -> Iterator[tuple[str, str]]:
        if not self.reports_dir.is_dir():
            return
        for path in sorted(self.reports_dir.glob("*.txt")):
            yield path.stem, path.read_text()
