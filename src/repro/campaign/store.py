"""Content-addressed result store: the campaign layer's persistence.

Every :class:`~repro.core.scenario.Scenario` has a *content address* -
a SHA-256 over its canonical encoding::

    key = sha256({fn qualname, params, seed, rng/seed conventions, salt})

where *salt* defaults to ``repro-<package version>`` so a code release
invalidates old results wholesale (pass an explicit salt to pin or
partition a campaign).  Results are stored one file pair per key:

.. code-block:: text

    <cache root>/
        index.jsonl             append-only journal (rebuildable)
        objects/<key>.json      scenario echo + encoded value + timings
        objects/<key>.npz       NumPy array payloads (only if any)
        reports/<name>.txt      rendered experiment reports (CLI)

The object files are the source of truth; ``index.jsonl`` is a derived
convenience view for ``repro cache ls``.  Each checkpoint *appends*
one line to the journal (an O(1) write - checkpoint cost does not grow
with the store size), and :meth:`ResultStore.entries` compacts the
journal back to one line per live key.  All object writes are atomic
renames, so a campaign interrupted mid-write never corrupts previously
stored results.

Scenarios are only cacheable when they are *deterministic on paper*:
a scenario that injects entropy (``rng_param``/``seed_param`` with
``seed=None``) or whose function/params cannot be encoded (lambdas)
is silently treated as uncacheable and simply always executes.

The cache root resolves, in order: explicit argument, the
``REPRO_CACHE_DIR`` environment variable, ``~/.cache/repro``.

For many concurrent writer processes (queue workers sharing one
cache), use :class:`repro.campaign.shard.ShardedResultStore` - the
same contract over a prefix-sharded layout with per-shard locking.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

from repro import __version__
from repro.campaign.objects import (
    OBJECT_FORMAT,
    StoreEntry,
    atomic_write,
    delete_object,
    encode_record,
    entry_meta,
    load_result,
    read_entry,
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

__all__ = ["OBJECT_FORMAT", "INDEX_FORMAT", "ResultStore", "StoreEntry",
           "default_cache_dir", "default_salt"]

#: format marker of the index journal's header line.
INDEX_FORMAT = "repro.index/2"


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
        progress_hook / preempt_hook: optional callables the queue
            worker attaches; :class:`~repro.campaign.runner.
            CampaignRunner` picks them up to report per-scenario
            progress and to honor graceful preemption without every
            harness having to thread new arguments through.
    """

    def __init__(self, root: str | os.PathLike | None = None, *,
                 salt: str | None = None):
        self.root = Path(root).expanduser() if root is not None \
            else default_cache_dir()
        self.salt = salt if salt is not None else default_salt()
        self.hits = 0
        self.misses = 0
        #: queue-worker hooks (see class docstring).
        self.progress_hook: Callable[[Any], None] | None = None
        self.preempt_hook: Callable[[], bool] | None = None

    # -- layout -------------------------------------------------------

    @property
    def objects_dir(self) -> Path:
        return self.root / "objects"

    @property
    def reports_dir(self) -> Path:
        return self.root / "reports"

    @property
    def index_path(self) -> Path:
        return self.root / "index.jsonl"

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
        if scenario.seed is None and (scenario.rng_param
                                      or scenario.seed_param):
            return None
        try:
            payload = {
                "fn": callable_spec(scenario.fn),
                "params": dict(scenario.params),
                "seed": scenario.seed,
                "rng_param": scenario.rng_param,
                "seed_param": scenario.seed_param,
                "salt": self.salt,
            }
            return stable_hash(payload)
        except UnserializableError:
            return None

    # -- read path ----------------------------------------------------

    def contains(self, scenario: Scenario) -> bool:
        key = self.scenario_key(scenario)
        return key is not None and self._object_path(key).exists()

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
        self._index_add(key, {"name": scenario.name,
                              "fn": record["scenario"]["fn"],
                              "wall_time": result.wall_time,
                              "created": record["created"]})
        return key

    # -- index journal ------------------------------------------------
    #
    # One line per checkpoint, appended - never rewritten - so the
    # cost of a checkpoint is O(1) regardless of how many results the
    # store already holds.  entries() compacts the journal (dedup by
    # key, drop evicted keys) from the object files, which are the
    # source of truth.

    def _index_add(self, key: str, meta: dict) -> None:
        line = json.dumps({"key": key, **meta}, sort_keys=True)
        self.root.mkdir(parents=True, exist_ok=True)
        header = ""
        if not self.index_path.exists():
            header = json.dumps({"format": INDEX_FORMAT,
                                 "salt": self.salt}) + "\n"
        with open(self.index_path, "a", encoding="utf-8") as fh:
            fh.write(header + line + "\n")

    def index_entries(self) -> dict[str, dict]:
        """Journal view ``{key: meta}`` (last write per key wins);
        torn or foreign lines are skipped."""
        out: dict[str, dict] = {}
        try:
            text = self.index_path.read_text(encoding="utf-8")
        except OSError:
            return out
        for line in text.splitlines():
            try:
                record = json.loads(line)
            except ValueError:
                continue
            if not isinstance(record, dict) or "key" not in record:
                continue
            meta = dict(record)
            out[meta.pop("key")] = meta
        return out

    def _compact_index(self, entries: Iterable[StoreEntry]) -> None:
        """Rewrite the journal as one line per live entry."""
        lines = [json.dumps({"format": INDEX_FORMAT, "salt": self.salt})]
        lines += [json.dumps({"key": e.key, **entry_meta(e)},
                             sort_keys=True) for e in entries]
        self.root.mkdir(parents=True, exist_ok=True)
        atomic_write(self.index_path, lambda path: path.write_text(
            "\n".join(lines) + "\n", encoding="utf-8"))

    # -- maintenance --------------------------------------------------

    def entries(self) -> list[StoreEntry]:
        """All stored results (scanned from the object files); as a
        side effect the index journal is compacted to match."""
        out = []
        for path in self._object_files():
            entry = read_entry(path, self._payload_path(path.stem))
            if entry is not None:
                out.append(entry)
        if self.index_path.exists():
            self._compact_index(out)
        return out

    def clear(self) -> tuple[int, int]:
        """Delete all stored results (reports are kept).

        Returns:
            ``(entries, bytes)`` - the number of results removed and
            the total bytes freed (object records, array payloads and
            the index journal).
        """
        removed = 0
        freed = 0
        for path in list(self._object_files()):
            n, b = delete_object(path, self._payload_path(path.stem))
            removed += n
            freed += b
        try:
            freed += self.index_path.stat().st_size
            self.index_path.unlink()
        except OSError:
            pass
        return removed, freed

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
