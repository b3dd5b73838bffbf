"""Object codec of the campaign result store.

:class:`~repro.campaign.store.ResultStore` persists one *object* per
content address: a ``<key>.json`` record (scenario echo, encoded
value, timings, format marker) plus an optional ``<key>.npz`` array
payload.  This module is the single implementation of that file
format, so every cache holds byte-identical objects (which is what
makes :meth:`ResultStore.merge` a plain file copy), and torn or truncated
files are classified identically everywhere: any object that fails to
decode is a cache *miss*, never an error.

All writes go through :func:`atomic_write` (temp file + ``os.replace``)
- readers therefore only ever observe complete files, with no locking
on the read path.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from repro.core.scenario import Scenario, SweepResult
from repro.core.serialization import (
    UnserializableError,
    callable_spec,
    from_jsonable,
    to_jsonable,
)

#: format marker of the per-result object files.
OBJECT_FORMAT = "repro.result/1"


@dataclass(frozen=True)
class StoreEntry:
    """One stored result, as listed by ``repro cache ls``."""

    key: str
    name: str
    fn: str
    wall_time: float
    created: float
    size_bytes: int
    has_arrays: bool


def atomic_write(path: Path, writer: Callable[[Path], None]) -> None:
    """Write via a sibling temp file and ``os.replace`` so concurrent
    readers never observe a partial file.

    The temp name includes the pid plus a random tag so concurrent
    writers of the same object race only on the final rename, where
    last-write-wins is safe.
    """
    tmp = path.with_name(
        f"{path.name}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
    try:
        writer(tmp)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def encode_record(scenario: Scenario, result: SweepResult, key: str,
                  salt: str) -> tuple[dict, dict[str, np.ndarray]]:
    """Object-file record of *result*, plus its array side table.

    Raises :class:`UnserializableError` when the scenario or its value
    cannot be encoded (the stores then treat the run as uncacheable).
    """
    arrays: dict[str, np.ndarray] = {}
    record = {
        "format": OBJECT_FORMAT,
        "key": key,
        "salt": salt,
        "scenario": {
            "name": scenario.name,
            "fn": callable_spec(scenario.fn),
            "params": to_jsonable(dict(scenario.params), arrays),
            "seed": to_jsonable(scenario.seed, arrays),
            "rng_param": scenario.rng_param,
        },
        "value": to_jsonable(result.value, arrays),
        "wall_time": result.wall_time,
        "created": time.time(),
        "has_arrays": bool(arrays),
    }
    return record, arrays


def write_object(object_path: Path, payload_path: Path, record: dict,
                 arrays: dict[str, np.ndarray]) -> None:
    """Persist an encoded record (and payload, if any) atomically."""
    object_path.parent.mkdir(parents=True, exist_ok=True)
    if arrays:
        def write_npz(path: Path) -> None:
            # A file handle stops savez from appending ".npz" to the
            # temp name, keeping the atomic rename simple.
            with open(path, "wb") as fh:
                np.savez_compressed(fh, **arrays)

        atomic_write(payload_path, write_npz)
    atomic_write(
        object_path,
        lambda path: path.write_text(json.dumps(record, indent=1)))


def read_record(object_path: Path) -> dict | None:
    """The decoded JSON record of an object file, or ``None`` for a
    missing/torn/foreign file."""
    try:
        record = json.loads(object_path.read_text())
    except (OSError, ValueError):
        return None
    if not isinstance(record, dict) or record.get("format") != OBJECT_FORMAT:
        return None
    return record


def load_result(object_path: Path, payload_path: Path,
                scenario: Scenario) -> SweepResult | None:
    """Decode a stored result, or ``None`` (a cache miss)."""
    record = read_record(object_path)
    if record is None:
        return None
    arrays = None
    try:
        if record.get("has_arrays"):
            with np.load(payload_path, allow_pickle=False) as npz:
                arrays = {name: npz[name] for name in npz.files}
        value = from_jsonable(record["value"], arrays)
    except Exception:
        # Torn write, missing/corrupt payload, or an entry written
        # against renamed code (stale import path, unpicklable blob):
        # treat as absent; the scenario re-executes and overwrites the
        # entry.
        return None
    return SweepResult(scenario=scenario, value=value,
                       wall_time=float(record.get("wall_time", 0.0)),
                       cached=True)


def read_entry(object_path: Path, payload_path: Path) -> StoreEntry | None:
    """The :class:`StoreEntry` view of an object file, or ``None``."""
    record = read_record(object_path)
    if record is None:
        return None
    try:
        size = object_path.stat().st_size
        if payload_path.exists():
            size += payload_path.stat().st_size
    except OSError:
        # The object was evicted between the read and the stat (a GC
        # running in another process): report it gone.
        return None
    return StoreEntry(
        key=record.get("key", object_path.stem),
        name=record.get("scenario", {}).get("name", "?"),
        fn=record.get("scenario", {}).get("fn", "?"),
        wall_time=float(record.get("wall_time", 0.0)),
        created=float(record.get("created", 0.0)),
        size_bytes=size,
        has_arrays=bool(record.get("has_arrays")))


def delete_object(object_path: Path, payload_path: Path) -> tuple[int, int]:
    """Remove one object's files; returns ``(entries, bytes)`` freed.

    The JSON record goes first so a concurrent reader either sees the
    complete pair or a straight miss - never a record whose payload
    has already vanished mid-decode being counted as corruption.
    """
    removed = 0
    freed = 0
    for path in (object_path, payload_path):
        try:
            size = path.stat().st_size
            path.unlink()
        except OSError:
            continue
        freed += size
        if path is object_path:
            removed = 1
    return removed, freed
